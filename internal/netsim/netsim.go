// Package netsim executes a transmission schedule on a simulated TSCH
// network, standing in for the paper's TinyOS/TelosB testbed runs
// (Sec. VII-D and VII-E).
//
// The simulator walks the slotframe hyperperiod by hyperperiod. In every
// slot it determines which scheduled transmissions actually fire (a node
// transmits only if it currently holds the packet, and a retransmission
// fires only when the primary attempt's DATA or ACK failed), maps channel
// offsets to physical channels with the TSCH hopping formula
//
//	physical = channels[(ASN + offset) mod |M|]
//
// and evaluates all concurrent DATA frames — and then the ACKs of the
// successful ones — through the SINR model of internal/radio, including
// co-channel interference between reused cells and external (WiFi-style)
// interferers.
//
// Besides per-flow packet delivery ratios (Fig. 8), the simulator collects
// the per-link statistics the Sec. VI detection policy consumes: PRR sample
// streams conditioned on whether the transmission shared its channel in the
// schedule, grouped into health-report epochs.
package netsim

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"wsan/internal/faults"
	"wsan/internal/flow"
	"wsan/internal/obs"
	"wsan/internal/radio"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// Interferer is an external interference source such as the paper's
// Raspberry-Pi WiFi pairs: a fixed transmitter with an ON/OFF burst process
// that raises the noise floor on the 802.15.4 channels overlapping its WiFi
// channel.
type Interferer struct {
	// X, Y, Z is the transmitter position in testbed coordinates; Floor is
	// its storey (for floor-penetration loss toward nodes on other floors).
	X, Y, Z float64
	Floor   int
	// PowerDBm is the transmit power as seen in a 2 MHz 802.15.4 channel.
	PowerDBm float64
	// DutyCycle is the long-run fraction of slots the interferer is active.
	DutyCycle float64
	// MeanBurstSlots is the mean length of an ON burst (≥1); bursts follow
	// a two-state Markov process.
	MeanBurstSlots float64
	// Channels lists the physical 802.15.4 channel indices the interferer
	// covers (WiFi channel 1 overlaps 802.15.4 channels 11–14 → indices
	// 0–3).
	Channels []int
}

// Config parameterizes a simulation run.
type Config struct {
	// Testbed supplies link gains and node positions. Required.
	Testbed *topology.Testbed
	// Flows is the scheduled flow set in the same priority order used by
	// the scheduler. Required.
	Flows []*flow.Flow
	// Schedule is the transmission schedule to execute. Required.
	Schedule *schedule.Schedule
	// Channels maps channel offsets to physical channel indices; its length
	// must equal Schedule.NumOffsets().
	Channels []int
	// Hyperperiods is how many times the slotframe is executed (the paper's
	// Fig. 8 uses 100).
	Hyperperiods int
	// FadingSigmaDB is the per-slot temporal fading; zero disables fading.
	FadingSigmaDB float64
	// FadingCorrelation makes fading bursty (AR(1) per path; see
	// radio.Env.FadingCorrelation). Zero keeps independent per-slot fading.
	FadingCorrelation float64
	// SurveyDriftSigmaDB models the gap between the surveyed link gains and
	// the radio environment at run time (the estimation error the paper's
	// conservative policy defends against): each directed (link, channel)
	// gain is offset by a fixed Gaussian drift realized deterministically
	// from Seed. Zero disables drift.
	SurveyDriftSigmaDB float64
	// Interferers are optional external interference sources.
	Interferers []Interferer
	// EpochSlots and SampleWindowSlots control link-statistics collection
	// for the detection policy: PRR samples are computed per window and
	// grouped per epoch (the paper uses 15-minute epochs of 18 samples).
	// Zero disables collection.
	EpochSlots        int
	SampleWindowSlots int
	// TrackLatency records per-packet end-to-end delivery latency (in
	// slots) in Result.Latencies.
	TrackLatency bool
	// ProbeEverySlots emulates the periodic neighbor-discovery broadcasts
	// (Sec. VI): every N slots each scheduled link exchanges one isolated
	// probe whose outcome is recorded as a contention-free sample. This
	// guarantees a PRR_DIST_cf distribution even for links whose scheduled
	// transmissions always share a channel. Zero disables probing.
	ProbeEverySlots int
	// Trace, when non-nil, receives a JSONL TraceEvent per fired
	// transmission. Voluminous; for debugging and external analysis.
	Trace io.Writer
	// Energy, when non-nil, accounts per-node radio energy in
	// Result.EnergyMJ.
	Energy *EnergyModel
	// Metrics, when non-nil, receives the simulator's counters
	// (transmissions, co-channel collisions, capture wins, interference
	// hits, per-channel retransmissions, …) under the "netsim." prefix,
	// flushed once per run. Nil disables observability at near-zero cost.
	Metrics obs.Sink
	// Faults, when non-nil, injects the scenario's timeline into the run:
	// crashed nodes go silent and deaf, blacked-out links lose all gain,
	// scenario interference raises the noise floor on its channels, and
	// drift steps shift the gain field — all deterministically, so the same
	// scenario and seed replay bit-identically. See internal/faults.
	Faults *faults.Scenario
	// FaultOffsetSlots shifts the scenario clock: event times are compared
	// against FaultOffsetSlots + ASN. The management loop uses it to let one
	// scenario unfold across its iterations' separate simulations.
	FaultOffsetSlots int
	// Seed drives all randomness (fading, reception, interferer bursts).
	Seed int64
	// DriftSeed, when non-zero, pins the survey-drift realization
	// independently of Seed, so repeated runs (e.g. the management loop's
	// iterations) observe the same radio environment while fading and
	// reception noise vary. Zero means the drift derives from Seed.
	DriftSeed int64
}

// LinkCondStats accumulates one link's transmission outcomes under one
// condition (reuse or contention-free) within one epoch.
type LinkCondStats struct {
	Attempts  int
	Successes int
	// Samples are the per-window PRR values (the detection policy's
	// PRR_DIST input).
	Samples []float64
}

// PRR returns the epoch-aggregate PRR, or -1 with no attempts.
func (s LinkCondStats) PRR() float64 {
	if s.Attempts == 0 {
		return -1
	}
	return float64(s.Successes) / float64(s.Attempts)
}

// EpochStats holds one link's statistics for one epoch under both
// conditions.
type EpochStats struct {
	Reuse LinkCondStats
	CF    LinkCondStats
}

// Result is the outcome of a simulation.
type Result struct {
	// Released and Delivered count end-to-end packets per flow ID.
	Released  map[int]int
	Delivered map[int]int
	// Latencies holds, per flow ID, the end-to-end latency in slots
	// (release to delivery, inclusive) of every delivered packet. Populated
	// only when Config.TrackLatency is set.
	Latencies map[int][]int
	// LinkEpochs maps each scheduled link to its per-epoch statistics
	// (empty unless EpochSlots > 0).
	LinkEpochs map[flow.Link][]EpochStats
	// EnergyMJ accumulates per-node radio energy (populated only when
	// Config.Energy is set).
	EnergyMJ map[int]float64
	// ChannelAttempts and ChannelFailures count DATA frames per physical
	// channel index — the per-channel evidence the manage loop's blacklist
	// policy weighs when external interference is suspected.
	ChannelAttempts [topology.NumChannels]int64
	ChannelFailures [topology.NumChannels]int64
	// FaultEvents tallies the scenario events applied during the run (zero
	// value when Config.Faults is nil).
	FaultEvents faults.Counts
}

// ChannelFailureRate returns the DATA failure rate observed on one physical
// channel, or -1 with no attempts.
func (r *Result) ChannelFailureRate(ch int) float64 {
	if ch < 0 || ch >= topology.NumChannels || r.ChannelAttempts[ch] == 0 {
		return -1
	}
	return float64(r.ChannelFailures[ch]) / float64(r.ChannelAttempts[ch])
}

// LinkPRRs aggregates each scheduled link's observed packet reception
// ratio across every epoch and condition of the run, keeping only links
// with at least minAttempts observed transmissions. This is the
// measured-PRR input the manage loop's re-budgeting pass compares against
// the survey estimates a reliability budget was planned from.
func (r *Result) LinkPRRs(minAttempts int) map[flow.Link]float64 {
	out := make(map[flow.Link]float64, len(r.LinkEpochs))
	for link, epochs := range r.LinkEpochs {
		att, succ := 0, 0
		for _, ep := range epochs {
			att += ep.Reuse.Attempts + ep.CF.Attempts
			succ += ep.Reuse.Successes + ep.CF.Successes
		}
		if att >= minAttempts && att > 0 {
			out[link] = float64(succ) / float64(att)
		}
	}
	return out
}

// PDR returns the packet delivery ratio of one flow, or -1 if it released
// nothing.
func (r *Result) PDR(flowID int) float64 {
	rel := r.Released[flowID]
	if rel == 0 {
		return -1
	}
	return float64(r.Delivered[flowID]) / float64(rel)
}

// PDRs returns the delivery ratios of all flows in ascending flow-ID order.
func (r *Result) PDRs() []float64 {
	ids := make([]int, 0, len(r.Released))
	for id := range r.Released {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.PDR(id))
	}
	return out
}

// WithMetricsSink returns a copy of the config with the observability sink
// attached (see Config.Metrics). Because the public wsan.SimConfig is an
// alias of this type, the method is the option surface of the public API:
//
//	cfg = cfg.WithMetricsSink(registry)
func (c Config) WithMetricsSink(m obs.Sink) Config {
	c.Metrics = m
	return c
}

// Run executes the schedule. It is deterministic for a fixed Config.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cancellation: ctx is checked between slotframe
// executions, so a cancelled context stops a long simulation within one
// hyperperiod and returns ctx.Err() (wrapped). The partial result is
// discarded.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Testbed == nil || cfg.Schedule == nil || len(cfg.Flows) == 0 {
		return nil, fmt.Errorf("netsim: testbed, schedule, and flows are required")
	}
	if len(cfg.Channels) != cfg.Schedule.NumOffsets() {
		return nil, fmt.Errorf("netsim: %d physical channels for %d offsets",
			len(cfg.Channels), cfg.Schedule.NumOffsets())
	}
	for _, ch := range cfg.Channels {
		if ch < 0 || ch >= topology.NumChannels {
			return nil, fmt.Errorf("netsim: physical channel index %d out of range", ch)
		}
	}
	if cfg.Hyperperiods <= 0 {
		return nil, fmt.Errorf("netsim: Hyperperiods %d must be positive", cfg.Hyperperiods)
	}
	if cfg.EpochSlots > 0 && cfg.SampleWindowSlots <= 0 {
		return nil, fmt.Errorf("netsim: EpochSlots set but SampleWindowSlots is not")
	}
	if cfg.FaultOffsetSlots < 0 {
		return nil, fmt.Errorf("netsim: FaultOffsetSlots %d must be non-negative", cfg.FaultOffsetSlots)
	}
	overlay, err := faults.NewOverlay(cfg.Faults, cfg.Testbed.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	gain := cfg.Testbed.GainDBm
	if cfg.SurveyDriftSigmaDB > 0 {
		driftSeed := cfg.DriftSeed
		if driftSeed == 0 {
			driftSeed = cfg.Seed
		}
		gain = memoGain(driftedGain(gain, cfg.SurveyDriftSigmaDB, driftSeed), cfg.Schedule, cfg.Channels)
	}
	if cfg.Faults != nil {
		gain = faultedGain(gain, overlay)
	}
	sim := &simulator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		env: &radio.Env{
			FadingSigmaDB:     cfg.FadingSigmaDB,
			FadingCorrelation: cfg.FadingCorrelation,
			Gain:              gain,
		},
		res: &Result{
			Released:   make(map[int]int, len(cfg.Flows)),
			Delivered:  make(map[int]int, len(cfg.Flows)),
			Latencies:  make(map[int][]int),
			LinkEpochs: make(map[flow.Link][]EpochStats),
			EnergyMJ:   make(map[int]float64),
		},
		interfOn:   make([]bool, len(cfg.Interferers)),
		overlay:    overlay,
		haveFaults: cfg.Faults != nil,
	}
	sim.trace = newTracer(cfg.Trace)
	sim.energy = cfg.Energy
	sim.collect = cfg.Metrics != nil
	sim.buildSlotIndex()
	sim.initInterferers()
	stop := obs.Timed(cfg.Metrics, "netsim.run_seconds")
	for rep := 0; rep < cfg.Hyperperiods; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
		sim.runHyperperiod(rep)
	}
	sim.res.FaultEvents = overlay.Counts()
	sim.finishStats()
	sim.flushMetrics()
	stop()
	if err := sim.trace.flushErr(); err != nil {
		return nil, err
	}
	return sim.res, nil
}
