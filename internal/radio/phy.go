// Package radio models the physical layer of an IEEE 802.15.4 (2.4 GHz)
// industrial wireless network: log-distance path loss with floor
// attenuation, the O-QPSK/DSSS bit-error-rate curve of CC2420-class radios,
// SINR computation with cumulative co-channel interference, temporal fading,
// and external (WiFi-style) interferers.
//
// The package is the common PHY substrate for two consumers:
//
//   - internal/topology uses the deterministic parts (path loss + PRR curve)
//     to synthesize the per-channel PRR matrices that stand in for the
//     Indriya and WUSTL testbed measurements, and
//   - internal/netsim uses the stochastic parts (per-slot fading, SINR
//     evaluation of concurrent transmissions) to execute schedules and
//     measure packet delivery, reproducing capture effect and cumulative
//     interference — the two phenomena the paper's channel-reuse policy
//     depends on.
package radio

import "math"

// Physical constants for a CC2420-class 802.15.4 radio at 2.4 GHz.
const (
	// DefaultTxPowerDBm matches the paper's testbed setting (Sec. VII-D).
	DefaultTxPowerDBm = 0.0
	// DefaultNoiseFloorDBm is thermal noise plus receiver noise figure over
	// a 2 MHz 802.15.4 channel.
	DefaultNoiseFloorDBm = -95.0
	// DefaultPacketBits corresponds to a typical 50-byte WirelessHART DPDU.
	DefaultPacketBits = 50 * 8
	// AckBits corresponds to the short TSCH acknowledgement frame.
	AckBits = 26 * 8
)

// DBmToMilliwatts converts a power level in dBm to linear milliwatts.
func DBmToMilliwatts(dbm float64) float64 {
	return math.Pow(10, dbm/10)
}

// MilliwattsToDBm converts a linear power in milliwatts to dBm. Zero or
// negative power maps to -Inf.
func MilliwattsToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// PathLossModel is a log-distance path-loss model with a per-floor
// penetration penalty, the standard indoor propagation model for multi-storey
// office deployments like Indriya (3 storeys) and WUSTL (3 floors).
type PathLossModel struct {
	// RefLossDB is the path loss at the reference distance (≈40.2 dB at 1 m
	// for 2.4 GHz free space).
	RefLossDB float64
	// RefDistM is the reference distance in meters.
	RefDistM float64
	// Exponent is the path-loss exponent (2 = free space; 2.8–3.5 indoor).
	Exponent float64
	// FloorLossDB is the penetration loss per concrete floor crossed.
	FloorLossDB float64
}

// DefaultPathLoss returns parameters calibrated for a dense indoor office
// deployment: nodes a few meters apart have high-PRR links, nodes across the
// building or across floors have marginal or no links.
func DefaultPathLoss() PathLossModel {
	return PathLossModel{
		RefLossDB:   40.2,
		RefDistM:    1.0,
		Exponent:    3.0,
		FloorLossDB: 13.0,
	}
}

// LossDB returns the path loss in dB over a 3D distance with the given number
// of floors crossed. Distances below the reference distance are clamped to
// the reference loss.
func (m PathLossModel) LossDB(distM float64, floorsCrossed int) float64 {
	if distM < m.RefDistM {
		distM = m.RefDistM
	}
	loss := m.RefLossDB + 10*m.Exponent*math.Log10(distM/m.RefDistM)
	if floorsCrossed > 0 {
		loss += float64(floorsCrossed) * m.FloorLossDB
	}
	return loss
}

// BER802154 returns the bit error rate of the IEEE 802.15.4 O-QPSK DSSS
// modulation for a given SINR in dB, using the standard 16-ary quasi-
// orthogonal DSSS formula (Zuniga & Krishnamachari):
//
//	BER = (8/15)·(1/16)·Σ_{k=2}^{16} (−1)^k · C(16,k) · exp(20·γ·(1/k − 1))
//
// where γ is the linear SINR. The result is clamped to [0, 0.5].
func BER802154(sinrDB float64) float64 {
	gamma := math.Pow(10, sinrDB/10)
	sum := 0.0
	for k := 2; k <= 16; k++ {
		term := binom16[k] * math.Exp(20*gamma*(1/float64(k)-1))
		if k%2 == 0 {
			sum += term
		} else {
			sum -= term
		}
	}
	ber := (8.0 / 15.0) * (1.0 / 16.0) * sum
	if ber < 0 {
		return 0
	}
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

// binom16 holds C(16,k) for k = 0..16.
var binom16 = [17]float64{
	1, 16, 120, 560, 1820, 4368, 8008, 11440,
	12870, 11440, 8008, 4368, 1820, 560, 120, 16, 1,
}

// prrSaturationDB is the SINR from which PRR802154 is exactly 1 for every
// frame length, so the BER series need not be evaluated there. Proof: for
// k ≥ 2 the exponent 20γ(1/k − 1) is at most −10γ, so the series' terms sum
// in magnitude to at most Σ C(16,k)·e^(−10γ) < 2¹⁶·e^(−10γ), and
// BER < (2¹⁶/30)·e^(−10γ). That is below 2⁻⁵⁴ once γ > 4.52 (6.55 dB).
// At 7 dB (γ = 5.01) the bound is 3.7e-19, about 150 times under 2⁻⁵⁴,
// which also covers the rounding of the fifteen floating-point terms. With
// BER < 2⁻⁵⁴, 1 − BER rounds to exactly 1 (the float64 spacing below 1 is
// 2⁻⁵³), and 1^bits = 1. TestPRRSaturationBitwise checks the identity
// densely.
const prrSaturationDB = 7.0

// PRR802154 returns the packet reception ratio for a packet of the given
// length at the given SINR: (1 − BER)^bits.
func PRR802154(sinrDB float64, packetBits int) float64 {
	if sinrDB >= prrSaturationDB {
		return 1
	}
	ber := BER802154(sinrDB)
	if ber == 0 {
		return 1
	}
	return math.Pow(1-ber, float64(packetBits))
}

// SINRdB computes the signal-to-interference-plus-noise ratio in dB given
// the desired signal power and the sum of interference powers, both in dBm,
// plus a noise floor in dBm. interfMW is the cumulative interference in
// linear milliwatts (0 for an interference-free slot).
func SINRdB(signalDBm, noiseFloorDBm, interfMW float64) float64 {
	noiseMW := DBmToMilliwatts(noiseFloorDBm)
	signalMW := DBmToMilliwatts(signalDBm)
	return MilliwattsToDBm(signalMW / (noiseMW + interfMW))
}
