package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wsan/internal/flow"
)

// decodeReference is Decode as it reads every input the canonical scanner
// rejects: encoding/json, then the New → Reserve → Place loop. It shares no
// code with the scanner, so the tests below can hold Decode to it.
func decodeReference(data []byte) (*Schedule, error) {
	var in scheduleJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return nil, fmt.Errorf("decode schedule: %w", err)
	}
	s, err := New(in.NumSlots, in.NumOffsets, in.NumNodes)
	if err != nil {
		return nil, fmt.Errorf("decode schedule: %w", err)
	}
	s.Reserve(len(in.Txs))
	for _, tx := range in.Txs {
		if err := s.Place(tx); err != nil {
			return nil, fmt.Errorf("decode schedule: %w", err)
		}
	}
	return s, nil
}

// checkDecodeAgrees fails t unless Decode and decodeReference give the same
// outcome on data: the same error text, or equal dimensions and an equal
// transmission list.
func checkDecodeAgrees(t testing.TB, data []byte) {
	t.Helper()
	got, gerr := Decode(bytes.NewReader(data))
	want, werr := decodeReference(data)
	switch {
	case gerr != nil || werr != nil:
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("Decode error %v, reference error %v on %q", gerr, werr, data)
		}
	case got.NumSlots() != want.NumSlots() || got.NumOffsets() != want.NumOffsets() ||
		got.NumNodes() != want.NumNodes():
		t.Fatalf("Decode dimensions %d/%d/%d, reference %d/%d/%d on %q",
			got.NumSlots(), got.NumOffsets(), got.NumNodes(),
			want.NumSlots(), want.NumOffsets(), want.NumNodes(), data)
	case !slices.Equal(got.Txs(), want.Txs()):
		t.Fatalf("Decode transmissions %v, reference %v on %q", got.Txs(), want.Txs(), data)
	}
}

// bundleSchedule is shaped like the schedule.json of a 60-flow Indriya RC
// bundle on 4 channels: 400 slots, 4 offsets, 80 nodes and 1136
// transmissions with the same field ranges.
func bundleSchedule(tb testing.TB) *Schedule {
	tb.Helper()
	s, err := New(400, 4, 80)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(60))
	for s.Len() < 1136 {
		from, to := rng.Intn(80), rng.Intn(80)
		if from == to {
			continue
		}
		_ = s.Place(Tx{
			FlowID: rng.Intn(60), Instance: rng.Intn(4), Hop: rng.Intn(8), Attempt: rng.Intn(2),
			Link: flow.Link{From: from, To: to}, Slot: rng.Intn(400), Offset: rng.Intn(4),
		}) // a conflicting draw is skipped
	}
	return s
}

// codecSchedules covers the shapes Encode must write exactly as
// json.Encoder does: a nil and an empty (non-nil) transmission list, ints
// at both ends of the int range, small random schedules and a bundle-sized
// one.
func codecSchedules(tb testing.TB) map[string]*Schedule {
	tb.Helper()
	nilTxs := mustNew(tb, 5, 1, 2)
	empty := mustNew(tb, 5, 1, 2)
	one := Tx{Link: flow.Link{From: 0, To: 1}}
	if err := empty.Place(one); err != nil {
		tb.Fatal(err)
	}
	if err := empty.Remove(one); err != nil {
		tb.Fatal(err)
	}
	extreme := mustNew(tb, math.MaxInt16, 2, 3)
	for _, tx := range []Tx{
		{FlowID: math.MaxInt, Instance: math.MinInt, Hop: -1, Attempt: -10,
			Link: flow.Link{From: 2, To: 0}, Slot: math.MaxInt16 - 1, Offset: 1},
		{FlowID: math.MinInt + 1, Instance: math.MaxInt - 1, Hop: 1000000007,
			Link: flow.Link{From: 1, To: 0}, Slot: 10},
	} {
		if err := extreme.Place(tx); err != nil {
			tb.Fatal(err)
		}
	}
	out := map[string]*Schedule{
		"nil":     nilTxs,
		"empty":   empty,
		"extreme": extreme,
		"bundle":  bundleSchedule(tb),
	}
	for seed := int64(0); seed < 20; seed++ {
		out[fmt.Sprintf("random%d", seed)] = randomSchedule(tb, seed, 5+int(seed)*7, 1+int(seed)%5, 4+int(seed), int(seed)*3)
	}
	return out
}

// TestEncodeMatchesJSONEncoder pins Encode's hand-written writer byte for
// byte to json.Encoder on the same scheduleJSON, through each of its
// writer paths: an empty bytes.Buffer, one that already holds data, and a
// plain io.Writer.
func TestEncodeMatchesJSONEncoder(t *testing.T) {
	for name, s := range codecSchedules(t) {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(scheduleJSON{
			NumSlots: s.numSlots, NumOffsets: s.numOffsets, NumNodes: s.numNodes, Txs: s.txs,
		}); err != nil {
			t.Fatal(err)
		}
		var fresh, plain bytes.Buffer
		held := bytes.NewBufferString("held|")
		for _, w := range []io.Writer{&fresh, held, struct{ io.Writer }{&plain}} {
			if err := s.Encode(w); err != nil {
				t.Fatal(err)
			}
		}
		for path, c := range map[string]struct{ got, want []byte }{
			"empty buffer":     {fresh.Bytes(), want.Bytes()},
			"non-empty buffer": {held.Bytes(), append([]byte("held|"), want.Bytes()...)},
			"plain writer":     {plain.Bytes(), want.Bytes()},
		} {
			if !bytes.Equal(c.got, c.want) {
				t.Errorf("%s, %s: Encode wrote\n%s\nwant\n%s", name, path, c.got, c.want)
			}
		}
	}
}

// TestEncodeOutputIsCanonical checks that the scanner itself accepts every
// Encode output and reads back the schedule's own fields, so Decode never
// falls back to reflection on an artifact this package wrote.
func TestEncodeOutputIsCanonical(t *testing.T) {
	for name, s := range codecSchedules(t) {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		in, ok := scanCanonical(buf.Bytes())
		if !ok {
			t.Errorf("%s: scanner rejects Encode's output %q", name, buf.Bytes())
			continue
		}
		if in.NumSlots != s.numSlots || in.NumOffsets != s.numOffsets || in.NumNodes != s.numNodes ||
			!slices.Equal(in.Txs, s.txs) || (in.Txs == nil) != (s.txs == nil) {
			t.Errorf("%s: scanner read %+v", name, in)
		}
		checkDecodeAgrees(t, buf.Bytes())
	}
}

// TestDecodeNearCanonical feeds inputs one edit away from Encode's form.
// Each must be accepted or rejected by the scanner as listed, and Decode
// must give the reference outcome on all of them.
func TestDecodeNearCanonical(t *testing.T) {
	const tx = `{"flow":3,"instance":0,"hop":1,"attempt":0,"link":{"from":0,"to":1},"slot":2,"offset":1}`
	const base = `{"numSlots":10,"numOffsets":2,"numNodes":4,"transmissions":[` + tx + `]}` + "\n"
	withTx := func(old, new string) string { return strings.Replace(base, old, new, 1) }
	const tx2 = `{"flow":4,"instance":0,"hop":0,"attempt":0,"link":{"from":2,"to":3},"slot":2,"offset":0}`
	fullSlot := withTx(tx, tx+`,`+tx2)
	cases := []struct {
		name      string
		doc       string
		canonical bool
		wantErr   bool
	}{
		{"canonical", base, true, false},
		{"full slot", fullSlot, true, false},
		{"null transmissions", `{"numSlots":10,"numOffsets":2,"numNodes":4,"transmissions":null}` + "\n", true, false},
		{"empty transmissions", `{"numSlots":10,"numOffsets":2,"numNodes":4,"transmissions":[]}` + "\n", true, false},
		{"max int", withTx(`"flow":3`, `"flow":9223372036854775807`), true, false},
		{"min int", withTx(`"flow":3`, `"flow":-9223372036854775808`), true, false},
		{"minus zero", withTx(`"flow":3`, `"flow":-0`), false, false},
		{"leading zero", withTx(`"slot":2`, `"slot":02`), false, true},
		{"negative leading zero", withTx(`"hop":1`, `"hop":-01`), false, true},
		{"19-digit overflow", withTx(`"flow":3`, `"flow":9223372036854775808`), false, true},
		{"20-digit int", withTx(`"flow":3`, `"flow":12345678901234567890`), false, true},
		{"fraction", withTx(`"slot":2`, `"slot":2.0`), false, true},
		{"exponent", withTx(`"slot":2`, `"slot":2e0`), false, true},
		{"quoted int", withTx(`"slot":2`, `"slot":"2"`), false, true},
		{"null dimension", strings.Replace(base, `"numSlots":10`, `"numSlots":null`, 1), false, true},
		{"missing final newline", strings.TrimSuffix(base, "\n"), false, false},
		{"two final newlines", base + "\n", false, false},
		{"trailing bytes", base + "x", false, false},
		{"trailing value", base + "{}", false, false},
		{"whitespace", strings.Replace(base, `"numNodes":4`, `"numNodes": 4`, 1), false, false},
		{"reordered key", strings.Replace(base, `"numSlots":10,"numOffsets":2`, `"numOffsets":2,"numSlots":10`, 1), false, false},
		{"reordered tx key", withTx(`"slot":2,"offset":1`, `"offset":1,"slot":2`), false, false},
		{"upper-case keys", strings.Replace(withTx(`"flow"`, `"FLOW"`), `"numSlots"`, `"NumSlots"`, 1), false, false},
		{"duplicate slot key", withTx(`"slot":2`, `"slot":2,"slot":5`), false, false},
		{"unknown field", withTx(`"offset":1`, `"offset":1,"x":1`), false, false},
		{"duplicate transmissions key", withTx(tx+`]`, tx+`],"transmissions":[{"flow":5}]`), false, false},
		{"trailing comma", withTx(tx+`]`, tx+`,]`), false, true},
		{"truncated", base[:len(base)/2], false, true},
		{"conflict", withTx(tx, tx+`,`+tx), true, true},
		{"bad dimensions", strings.Replace(base, `"numSlots":10`, `"numSlots":0`, 1), true, true},
		{"huge dimensions", strings.Replace(base, `"numSlots":10`, `"numSlots":4611686018427387904`, 1), true, true},
		{"huge dimensions, spaced", strings.Replace(base, `"numSlots":10`, `"numSlots": 4611686018427387904`, 1), false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := scanCanonical([]byte(c.doc)); ok != c.canonical {
				t.Errorf("scanner accepts = %v, want %v", ok, c.canonical)
			}
			if _, err := Decode(strings.NewReader(c.doc)); (err != nil) != c.wantErr {
				t.Errorf("Decode error = %v, want error %v", err, c.wantErr)
			}
			checkDecodeAgrees(t, []byte(c.doc))
		})
	}
	// Both offsets of slot 2 decode as a full slot, and the grid keeps the
	// full-slot premise RC's reuse fill reads it by.
	s, err := Decode(strings.NewReader(fullSlot))
	if err != nil {
		t.Fatal(err)
	}
	if !s.SlotFull(2) {
		t.Fatalf("slot 2 holds offsets %v but is not full", s.OccupiedOffsets(2, nil))
	}
	checkFullSlots(t, s)
}

var benchSchedule *Schedule

// BenchmarkDecode decodes a bundle-sized schedule.json (1136
// transmissions), the part every reschedule, simulate, manage and converge
// job loads.
func BenchmarkDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := bundleSchedule(b).Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		benchSchedule = s
	}
}

// BenchmarkEncode encodes the same bundle-sized schedule into a new
// buffer, as every job that writes a schedule.json part does.
func BenchmarkEncode(b *testing.B) {
	s := bundleSchedule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer // a fresh buffer per part, as jobs.encodeParts uses
		if err := s.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
