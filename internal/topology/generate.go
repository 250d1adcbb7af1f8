package topology

import (
	"fmt"
	"math"
	"math/rand"

	"wsan/internal/radio"
)

// GenConfig parameterizes the synthetic testbed generator. The zero value is
// not usable; start from DefaultGenConfig, IndriyaConfig, or WUSTLConfig.
type GenConfig struct {
	Name     string
	NumNodes int
	// Floors is the number of building storeys; nodes are split evenly.
	Floors int
	// FloorWidthM and FloorDepthM are the floor-plate dimensions in meters.
	FloorWidthM float64
	FloorDepthM float64
	// FloorHeightM is the storey height in meters.
	FloorHeightM float64
	// PathLoss is the large-scale propagation model.
	PathLoss radio.PathLossModel
	// ShadowSigmaDB is the per-link lognormal shadowing std-dev (symmetric,
	// channel-independent: obstacles affect all channels).
	ShadowSigmaDB float64
	// ChannelFadeSigmaDB is the per-link per-channel multipath fading
	// std-dev (symmetric per channel: frequency-selective fading).
	ChannelFadeSigmaDB float64
	// NodeOffsetSigmaDB is the per-node hardware TX/RX calibration std-dev;
	// it is what makes link PRRs asymmetric.
	NodeOffsetSigmaDB float64
	// TxPowerDBm is the transmit power used for the PRR survey.
	TxPowerDBm float64
	// NoiseFloorDBm is the receiver noise floor.
	NoiseFloorDBm float64
	// PacketBits is the probe frame length used to convert SNR to PRR.
	PacketBits int
	// MeasurementFloor zeroes out PRRs below this value: a real survey keeps
	// only usable neighbors in the neighbor table, so weak couplings are
	// invisible to the network manager — the very estimation error that
	// motivates conservative reuse (couplings below the floor still
	// interfere in the simulator, they are just not in G_R).
	MeasurementFloor float64
	// ProbeCount quantizes PRRs to multiples of 1/ProbeCount, matching a
	// survey that sends ProbeCount probes per link per channel. Zero
	// disables quantization.
	ProbeCount int
	// Placement selects the node layout per floor (default PlacementGrid).
	Placement Placement
	// TemporalFadeSigmaDB is the total temporal variation the survey
	// observes over its collection window: fast per-slot fading plus the
	// slow environment drift between sessions. The measured PRR is the
	// variation-averaged reception probability, so link selection absorbs
	// both; set it to sqrt(FadingSigmaDB² + SurveyDriftSigmaDB²) of the
	// simulator for consistency. Zero means the survey sees only the mean
	// SNR.
	TemporalFadeSigmaDB float64
}

// DefaultGenConfig returns a mid-size three-floor deployment.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Name:                "synthetic",
		NumNodes:            60,
		Floors:              3,
		FloorWidthM:         70,
		FloorDepthM:         32,
		FloorHeightM:        4,
		PathLoss:            radio.DefaultPathLoss(),
		ShadowSigmaDB:       4.0,
		ChannelFadeSigmaDB:  2.0,
		NodeOffsetSigmaDB:   1.0,
		TxPowerDBm:          radio.DefaultTxPowerDBm,
		NoiseFloorDBm:       radio.DefaultNoiseFloorDBm,
		PacketBits:          radio.DefaultPacketBits,
		MeasurementFloor:    0.30,
		ProbeCount:          100,
		TemporalFadeSigmaDB: 3.5,
	}
}

// IndriyaConfig approximates the 80-node, 3-storey Indriya testbed at NUS:
// large floor plates and a dense deployment.
func IndriyaConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Name = "indriya"
	cfg.NumNodes = 80
	cfg.FloorWidthM = 140
	cfg.FloorDepthM = 56
	cfg.PathLoss.Exponent = 3.8
	return cfg
}

// WUSTLConfig approximates the 60-node, 3-floor WUSTL testbed in Bryan Hall.
func WUSTLConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Name = "wustl"
	cfg.NumNodes = 60
	cfg.FloorWidthM = 100
	cfg.FloorDepthM = 40
	cfg.PathLoss.Exponent = 3.7
	return cfg
}

// Indriya generates the Indriya-like testbed from a seed.
func Indriya(seed int64) (*Testbed, error) { return Generate(IndriyaConfig(), seed) }

// WUSTL generates the WUSTL-like testbed from a seed.
func WUSTL(seed int64) (*Testbed, error) { return Generate(WUSTLConfig(), seed) }

// Generate synthesizes a testbed: it places nodes on a jittered grid per
// floor, realizes the static radio environment (shadowing, per-channel
// fading, per-node offsets), and derives the per-channel PRR matrices through
// the interference-free SINR→PRR curve. All randomness comes from the seed;
// the same (config, seed) pair always yields the identical testbed.
func Generate(cfg GenConfig, seed int64) (*Testbed, error) {
	if cfg.NumNodes < 2 {
		return nil, fmt.Errorf("generate %s: need at least 2 nodes, have %d", cfg.Name, cfg.NumNodes)
	}
	if cfg.Floors < 1 {
		return nil, fmt.Errorf("generate %s: need at least 1 floor, have %d", cfg.Name, cfg.Floors)
	}
	rng := rand.New(rand.NewSource(seed))
	tb := &Testbed{
		Name:  cfg.Name,
		Nodes: placeNodes(cfg, rng),
	}
	n := cfg.NumNodes
	tb.gain = make([]float64, n*n*NumChannels)
	tb.prr = make([]float64, n*n*NumChannels)
	survey := newSurveyTable(cfg)

	// Per-node hardware offsets (TX power and RX sensitivity calibration).
	txOff := make([]float64, n)
	rxOff := make([]float64, n)
	for i := 0; i < n; i++ {
		txOff[i] = rng.NormFloat64() * cfg.NodeOffsetSigmaDB
		rxOff[i] = rng.NormFloat64() * cfg.NodeOffsetSigmaDB
	}

	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			shadow := rng.NormFloat64() * cfg.ShadowSigmaDB
			floors := abs(tb.Nodes[u].Floor - tb.Nodes[v].Floor)
			loss := cfg.PathLoss.LossDB(tb.Distance(u, v), floors) + shadow
			for ch := 0; ch < NumChannels; ch++ {
				chFade := rng.NormFloat64() * cfg.ChannelFadeSigmaDB
				// u→v and v→u share path loss, shadowing, and channel fade;
				// they differ only in the endpoint hardware offsets.
				guv := cfg.TxPowerDBm - loss - chFade + txOff[u] + rxOff[v]
				gvu := cfg.TxPowerDBm - loss - chFade + txOff[v] + rxOff[u]
				tb.gain[tb.index(u, v, ch)] = guv
				tb.gain[tb.index(v, u, ch)] = gvu
				tb.prr[tb.index(u, v, ch)] = survey.prr(guv)
				tb.prr[tb.index(v, u, ch)] = survey.prr(gvu)
			}
		}
		for ch := 0; ch < NumChannels; ch++ {
			tb.gain[tb.index(u, u, ch)] = math.Inf(-1)
		}
	}
	return tb, nil
}

// Custom builds a testbed from explicit link gains, for tests and
// hand-crafted deployments: gain(u, v, ch) must return the mean received
// power in dBm at v when u transmits on channel index ch. PRRs are derived
// from the gains exactly as Generate does, using cfg's receiver parameters
// (noise floor, packet length, measurement floor, probe quantization).
func Custom(name string, nodes []Node, gain func(u, v, ch int) float64, cfg GenConfig) (*Testbed, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("custom testbed %s: need at least 2 nodes, have %d", name, len(nodes))
	}
	n := len(nodes)
	tb := &Testbed{
		Name:  name,
		Nodes: append([]Node(nil), nodes...),
		gain:  make([]float64, n*n*NumChannels),
		prr:   make([]float64, n*n*NumChannels),
	}
	survey := newSurveyTable(cfg)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for ch := 0; ch < NumChannels; ch++ {
				if u == v {
					tb.gain[tb.index(u, v, ch)] = math.Inf(-1)
					continue
				}
				g := gain(u, v, ch)
				tb.gain[tb.index(u, v, ch)] = g
				tb.prr[tb.index(u, v, ch)] = survey.prr(g)
			}
		}
	}
	return tb, nil
}

// gaussHermite7 holds the 7-point Gauss-Hermite nodes and weights for
// integrating against exp(-t²); used to average the PRR curve over
// Gaussian-in-dB temporal fading.
var gaussHermite7 = [7][2]float64{
	{-2.6519613568352334, 0.0009717812450995},
	{-1.6735516287674714, 0.0545155828191270},
	{-0.8162878828589647, 0.4256072526101278},
	{0, 0.8102646175568073},
	{0.8162878828589647, 0.4256072526101278},
	{1.6735516287674714, 0.0545155828191270},
	{2.6519613568352334, 0.0009717812450995},
}

// measuredPRR converts a mean received power to the PRR a link survey would
// record: the fading-averaged interference-free PRR, quantized to the
// probe-count resolution, with sub-floor values reported as zero. It is the
// exact function the survey table (survey.go) answers for.
func (cfg GenConfig) measuredPRR(rxDBm float64) float64 {
	return cfg.quantize(cfg.fadedPRR(rxDBm))
}

// fadedPRR is the interference-free PRR at mean received power rxDBm,
// averaged over the survey's temporal fading.
func (cfg GenConfig) fadedPRR(rxDBm float64) float64 {
	snr := rxDBm - cfg.NoiseFloorDBm
	if !(cfg.TemporalFadeSigmaDB > 0) {
		return radio.PRR802154(snr, cfg.PacketBits)
	}
	// E[PRR(snr + X)], X ~ N(0, σ²), via Gauss-Hermite quadrature:
	// substitute x = √2·σ·t so the weights integrate exp(-t²).
	const sqrtPi = 1.7724538509055160
	var prr float64
	for _, nw := range gaussHermite7 {
		x := math.Sqrt2 * cfg.TemporalFadeSigmaDB * nw[0]
		prr += nw[1] * radio.PRR802154(snr+x, cfg.PacketBits)
	}
	return prr / sqrtPi
}

// quantize reports a fade-averaged PRR as the survey records it: rounded to
// multiples of 1/ProbeCount, zero below MeasurementFloor, at most 1. It is
// nondecreasing in prr, which the survey table's proof relies on.
func (cfg GenConfig) quantize(prr float64) float64 {
	if cfg.ProbeCount > 0 {
		prr = math.Round(prr*float64(cfg.ProbeCount)) / float64(cfg.ProbeCount)
	}
	if prr < cfg.MeasurementFloor {
		return 0
	}
	if prr > 1 {
		return 1
	}
	return prr
}

// Placement selects how nodes are laid out on each floor.
type Placement int

const (
	// PlacementGrid is a jittered grid, the default — an office floor with
	// devices in most rooms.
	PlacementGrid Placement = iota
	// PlacementCorridor strings nodes along two long corridors per floor,
	// the classic instrumented-hallway testbed layout.
	PlacementCorridor
	// PlacementUniform scatters nodes uniformly at random.
	PlacementUniform
)

// placeNodes lays nodes out on each floor according to cfg.Placement.
func placeNodes(cfg GenConfig, rng *rand.Rand) []Node {
	switch cfg.Placement {
	case PlacementCorridor:
		return placeCorridor(cfg, rng)
	case PlacementUniform:
		return placeUniform(cfg, rng)
	default:
		return placeGrid(cfg, rng)
	}
}

// placeCorridor puts nodes along two corridors at 1/3 and 2/3 of the floor
// depth, evenly spaced with jitter along the corridor axis.
func placeCorridor(cfg GenConfig, rng *rand.Rand) []Node {
	nodes := make([]Node, 0, cfg.NumNodes)
	perFloor := make([]int, cfg.Floors)
	for i := 0; i < cfg.NumNodes; i++ {
		perFloor[i%cfg.Floors]++
	}
	id := 0
	for f := 0; f < cfg.Floors; f++ {
		count := perFloor[f]
		perCorridor := (count + 1) / 2
		for i := 0; i < count; i++ {
			corridor := i / perCorridor
			posInCorridor := i % perCorridor
			dx := cfg.FloorWidthM / float64(perCorridor)
			y := cfg.FloorDepthM / 3
			if corridor == 1 {
				y = 2 * cfg.FloorDepthM / 3
			}
			nodes = append(nodes, Node{
				ID:    id,
				X:     (float64(posInCorridor)+0.5)*dx + (rng.Float64()-0.5)*dx*0.4,
				Y:     y + (rng.Float64()-0.5)*2,
				Z:     float64(f) * cfg.FloorHeightM,
				Floor: f,
			})
			id++
		}
	}
	return nodes
}

// placeUniform scatters nodes uniformly over each floor plate.
func placeUniform(cfg GenConfig, rng *rand.Rand) []Node {
	nodes := make([]Node, 0, cfg.NumNodes)
	for i := 0; i < cfg.NumNodes; i++ {
		f := i % cfg.Floors
		nodes = append(nodes, Node{
			ID:    i,
			X:     rng.Float64() * cfg.FloorWidthM,
			Y:     rng.Float64() * cfg.FloorDepthM,
			Z:     float64(f) * cfg.FloorHeightM,
			Floor: f,
		})
	}
	return nodes
}

// placeGrid lays nodes out on a jittered grid on each floor, mimicking the
// office deployments of the physical testbeds.
func placeGrid(cfg GenConfig, rng *rand.Rand) []Node {
	nodes := make([]Node, 0, cfg.NumNodes)
	perFloor := make([]int, cfg.Floors)
	for i := 0; i < cfg.NumNodes; i++ {
		perFloor[i%cfg.Floors]++
	}
	id := 0
	for f := 0; f < cfg.Floors; f++ {
		count := perFloor[f]
		if count == 0 {
			continue
		}
		// Grid dimensions proportional to the floor aspect ratio.
		cols := int(math.Ceil(math.Sqrt(float64(count) * cfg.FloorWidthM / cfg.FloorDepthM)))
		if cols < 1 {
			cols = 1
		}
		rows := (count + cols - 1) / cols
		dx := cfg.FloorWidthM / float64(cols)
		dy := cfg.FloorDepthM / float64(rows)
		for i := 0; i < count; i++ {
			r, c := i/cols, i%cols
			jx := (rng.Float64() - 0.5) * dx * 0.6
			jy := (rng.Float64() - 0.5) * dy * 0.6
			nodes = append(nodes, Node{
				ID:    id,
				X:     (float64(c)+0.5)*dx + jx,
				Y:     (float64(r)+0.5)*dy + jy,
				Z:     float64(f) * cfg.FloorHeightM,
				Floor: f,
			})
			id++
		}
	}
	return nodes
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
