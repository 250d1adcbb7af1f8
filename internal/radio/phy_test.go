package radio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDBmRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-100, -50, -10, 0, 10, 30} {
		got := MilliwattsToDBm(DBmToMilliwatts(dbm))
		if math.Abs(got-dbm) > 1e-9 {
			t.Errorf("round trip %v -> %v", dbm, got)
		}
	}
}

func TestMilliwattsToDBmNonPositive(t *testing.T) {
	if got := MilliwattsToDBm(0); !math.IsInf(got, -1) {
		t.Errorf("MilliwattsToDBm(0) = %v, want -Inf", got)
	}
	if got := MilliwattsToDBm(-1); !math.IsInf(got, -1) {
		t.Errorf("MilliwattsToDBm(-1) = %v, want -Inf", got)
	}
}

func TestPathLossMonotoneInDistance(t *testing.T) {
	m := DefaultPathLoss()
	prev := -1.0
	for d := 1.0; d <= 100; d += 1.0 {
		loss := m.LossDB(d, 0)
		if loss <= prev {
			t.Fatalf("loss not increasing at d=%v: %v <= %v", d, loss, prev)
		}
		prev = loss
	}
}

func TestPathLossClampBelowRef(t *testing.T) {
	m := DefaultPathLoss()
	if got, want := m.LossDB(0.1, 0), m.RefLossDB; got != want {
		t.Errorf("LossDB(0.1) = %v, want clamp to %v", got, want)
	}
}

func TestPathLossFloors(t *testing.T) {
	m := DefaultPathLoss()
	base := m.LossDB(10, 0)
	for f := 1; f <= 3; f++ {
		got := m.LossDB(10, f)
		want := base + float64(f)*m.FloorLossDB
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("LossDB(10,%d) = %v, want %v", f, got, want)
		}
	}
}

func TestBERMonotoneDecreasing(t *testing.T) {
	prev := 1.0
	for s := -10.0; s <= 10; s += 0.25 {
		ber := BER802154(s)
		if ber > prev+1e-12 {
			t.Fatalf("BER increased at SINR %v: %v > %v", s, ber, prev)
		}
		if ber < 0 || ber > 0.5 {
			t.Fatalf("BER out of range at %v: %v", s, ber)
		}
		prev = ber
	}
}

func TestBERLimits(t *testing.T) {
	if ber := BER802154(15); ber > 1e-12 {
		t.Errorf("BER at 15 dB = %v, want ~0", ber)
	}
	if ber := BER802154(-30); ber < 0.3 {
		t.Errorf("BER at -30 dB = %v, want near 0.5", ber)
	}
}

func TestPRRProperties(t *testing.T) {
	// High SINR -> near 1; low SINR -> near 0; monotone in SINR.
	if prr := PRR802154(10, DefaultPacketBits); prr < 0.999 {
		t.Errorf("PRR at 10 dB = %v, want ≈1", prr)
	}
	if prr := PRR802154(-5, DefaultPacketBits); prr > 0.01 {
		t.Errorf("PRR at -5 dB = %v, want ≈0", prr)
	}
	prev := 0.0
	for s := -10.0; s <= 10; s += 0.5 {
		prr := PRR802154(s, DefaultPacketBits)
		if prr < prev-1e-12 {
			t.Fatalf("PRR decreased at %v", s)
		}
		prev = prr
	}
}

func TestPRRShorterPacketsMoreReliable(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	prop := func(raw float64) bool {
		sinr := math.Mod(math.Abs(raw), 12) - 4 // [-4, 8)
		return PRR802154(sinr, AckBits) >= PRR802154(sinr, DefaultPacketBits)-1e-12
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
