// Package manage runs the closed loop the paper's pieces add up to:
// execute the schedule, collect health reports, classify reliability
// degradation (Sec. VI), reassign the links channel reuse is hurting, and
// repeat until the network is clean or repair stops making progress. The
// paper presents the classifier and motivates the reassignment; this
// package is the driver a network manager would actually run.
package manage

import (
	"context"
	"fmt"
	"sort"
	"time"

	"wsan/internal/detect"
	"wsan/internal/faults"
	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/obs"
	"wsan/internal/repair"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// Config parameterizes the management loop.
type Config struct {
	// Testbed, Flows, and Schedule describe the running network. The
	// schedule is mutated in place by repairs.
	Testbed  *topology.Testbed
	Flows    []*flow.Flow
	Schedule *schedule.Schedule
	// Channels maps offsets to physical channels (see netsim.Config).
	Channels []int
	// Observation horizon per iteration.
	EpochSlots        int
	SampleWindowSlots int
	ProbeEverySlots   int
	// Radio environment (see netsim.Config).
	FadingSigmaDB      float64
	SurveyDriftSigmaDB float64
	Interferers        []netsim.Interferer
	// Detection policy; zero value means detect.DefaultConfig().
	Detection detect.Config
	// MaxIterations bounds the loop (default 5).
	MaxIterations int
	// CompactAfterRepair pulls transmissions earlier (exclusive cells only)
	// after each repair, recovering the latency repairs fragment.
	CompactAfterRepair bool
	// Metrics, when non-nil, receives per-iteration verdict counts, repair
	// moves, and PDR gauges under the "manage." prefix, one "manage.iteration"
	// event per cycle, and the counters of the simulator and repairer it
	// drives. Nil disables observability at near-zero cost.
	Metrics obs.Sink
	// OnIteration, when non-nil, is invoked synchronously with each completed
	// Iteration, in order, before the loop decides whether to continue — the
	// hook live consumers (the daemon's event stream) attach to. It must not
	// block: the loop stalls for as long as the hook runs.
	OnIteration func(Iteration)
	// Seed drives the simulations; each iteration advances it so repaired
	// schedules face fresh noise.
	Seed int64

	// Faults, when non-nil, replays a fault scenario during every
	// observation window. The scenario clock advances with the loop —
	// iteration i observes the timeline from slot i·(executed slots per
	// iteration) — so one scenario spans the whole management session.
	Faults *faults.Scenario
	// MaxStalls bounds the consecutive iterations the loop tolerates
	// without progress (no repair move, reroute, or blacklist) while the
	// network is degraded, before giving up with the last Degraded state.
	// Default 1 without a fault scenario (the classic behavior: one futile
	// iteration ends the loop) and 3 with one, because a fault timeline can
	// clear on its own and retrying is how the loop notices.
	MaxStalls int
	// RetryBackoff is the base delay slept after a stalled iteration; it
	// doubles per consecutive stall and is capped at MaxRetryBackoff
	// (default 8×RetryBackoff). Zero disables sleeping — stalls are still
	// counted against MaxStalls.
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration
	// BlacklistParoleCleanIterations, when positive, un-blacklists a
	// condemned channel after that many consecutive clean iterations: the
	// channel returns to its hopping-list positions and its replacement
	// goes back to the spare pool. A channel that relapses after parole is
	// condemned permanently. Zero (the default) keeps the classic
	// permanent-blacklist behavior, which is the right call under
	// persistent interference — parole is for deployments whose
	// interference comes in bursts.
	BlacklistParoleCleanIterations int

	// LinkPRR, when non-nil, supplies the planning-time packet reception
	// ratio of a link; the re-budgeting pass falls back to it for links
	// the observation window did not sample enough. Optional.
	LinkPRR func(flow.Link) float64
}

// Channel blacklisting removes a channel from the hopping list only after
// at least blacklistMinAttempts observed transmissions failed at a rate of
// at least blacklistFailureRate (and far above the cleanest channel, see
// blacklistChannels).
const (
	blacklistMinAttempts = 50
	blacklistFailureRate = 0.5
)

// WithMetricsSink returns a copy of the config with the observability sink
// attached (see Config.Metrics). Because the public wsan.ManageConfig is an
// alias of this type, the method is the option surface of the public API.
func (c Config) WithMetricsSink(m obs.Sink) Config {
	c.Metrics = m
	return c
}

// verdictSlug maps a detection verdict to its stable metric-name suffix.
func verdictSlug(v detect.Verdict) string {
	switch v {
	case detect.Meets:
		return "meets"
	case detect.ReuseDegraded:
		return "reuse_degraded"
	case detect.OtherCause:
		return "other_cause"
	case detect.Inconclusive:
		return "inconclusive"
	default:
		return "unknown"
	}
}

// Iteration reports one observe→classify→repair cycle.
type Iteration struct {
	// Index is the 0-based iteration number.
	Index int
	// MinPDR and MeanPDR summarize delivery during this observation window.
	MinPDR, MeanPDR float64
	// Degraded is the number of distinct reuse-degraded links detected.
	Degraded int
	// Moved and Unmovable report the repair outcome (zero on the final,
	// clean iteration).
	Moved, Unmovable int
	// DeltaChanges and AffectedDevices measure the dissemination cost of
	// this iteration's schedule update: delta entries pushed and distinct
	// devices that must be updated.
	DeltaChanges    int
	AffectedDevices int
	// Health classifies the network at the end of this iteration: Healthy,
	// Degraded, or Recovered (healthy again after a degraded iteration).
	Health Health
	// DegradedFlows lists (sorted) the flows whose end-to-end PDR fell
	// below the detection PRR threshold during this window.
	DegradedFlows []int
	// SuspectNodes lists nodes inferred crashed from this window's link
	// statistics; Rerouted counts the flows moved onto detour routes
	// avoiding them.
	SuspectNodes []int
	Rerouted     int
	// Blacklisted lists physical channels removed from the hopping list
	// this iteration; Channels is the hopping list in effect afterwards
	// (and for the next iteration).
	Blacklisted []int
	Channels    []int
	// Rehabilitated lists blacklisted channels restored to the hopping
	// list this iteration after their parole (see
	// Config.BlacklistParoleCleanIterations).
	Rehabilitated []int
	// Rebudgeted counts targeted flows whose retransmission budget was
	// re-planned and re-placed this iteration; RetriesShed and ShedFlows
	// report the retry slots surrendered by lower-criticality flows to
	// make room, and Shortfalls lists the targeted flows whose
	// TargetPDR the network cannot meet under the observed link PRRs.
	Rebudgeted  int
	RetriesShed int
	ShedFlows   []int
	Shortfalls  []FlowShortfall
	// Backoff is the delay slept after this stalled iteration (zero when
	// the iteration made progress or RetryBackoff is unset).
	Backoff time.Duration
}

// Loop runs the management cycle until the network is healthy (no link
// classified reuse-degraded and every flow meeting the PRR target), repair
// stops making progress for MaxStalls consecutive iterations, or
// MaxIterations is reached. It returns one Iteration per cycle, in order;
// the schedule (and, after reroutes, the flow routes) in cfg reflect all
// applied repairs. Under a fault scenario the loop degrades gracefully:
// crashed nodes are inferred and routed around, channels under sustained
// interference are swapped out of the hopping list, and every iteration
// carries a Health verdict instead of the loop giving up at the first
// unrepairable fault.
func Loop(cfg Config) ([]Iteration, error) {
	return LoopCtx(context.Background(), cfg)
}

// LoopCtx is Loop with cancellation: ctx is checked before every iteration
// (and between the slotframe executions of the observation simulation
// inside it), so a cancelled context stops the cycle promptly with
// ctx.Err() (wrapped). Iterations completed before the cancellation are
// returned alongside the error; the schedule keeps their repairs.
func LoopCtx(ctx context.Context, cfg Config) ([]Iteration, error) {
	if cfg.Testbed == nil || cfg.Schedule == nil || len(cfg.Flows) == 0 {
		return nil, fmt.Errorf("manage: testbed, schedule, and flows are required")
	}
	if cfg.EpochSlots <= 0 || cfg.SampleWindowSlots <= 0 {
		return nil, fmt.Errorf("manage: EpochSlots and SampleWindowSlots are required")
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 5
	}
	if cfg.Detection == (detect.Config{}) {
		cfg.Detection = detect.DefaultConfig()
	}
	if cfg.MaxStalls <= 0 {
		if cfg.Faults != nil {
			cfg.MaxStalls = 3 // fault timelines can clear; retry before quitting
		} else {
			cfg.MaxStalls = 1
		}
	}
	if cfg.MaxRetryBackoff <= 0 {
		cfg.MaxRetryBackoff = 8 * cfg.RetryBackoff
	}
	hyper := cfg.Schedule.NumSlots()
	reps := (cfg.EpochSlots + hyper - 1) / hyper
	// The hopping list is copied so blacklisting never mutates the caller's
	// slice; used tracks every channel ever in the list, so a blacklisted
	// channel cannot return as a later replacement.
	channels := append([]int(nil), cfg.Channels...)
	used := make(map[int]bool, len(channels))
	for _, ch := range channels {
		used[ch] = true
	}
	stalls := 0
	everDegraded := false
	targeted := hasTargets(cfg.Flows)
	// paroles tracks blacklisted channels eligible for rehabilitation:
	// channel → (its replacement, consecutive clean iterations seen).
	// paroled remembers channels that already served one parole; a relapse
	// condemns them permanently.
	type parole struct {
		replacement int
		clean       int
	}
	paroles := make(map[int]*parole)
	paroled := make(map[int]bool)
	var out []Iteration
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("manage: %w", err)
		}
		iterStart := time.Now()
		res, err := netsim.RunCtx(ctx, netsim.Config{
			Testbed:            cfg.Testbed,
			Flows:              cfg.Flows,
			Schedule:           cfg.Schedule,
			Channels:           channels,
			Hyperperiods:       reps,
			FadingSigmaDB:      cfg.FadingSigmaDB,
			SurveyDriftSigmaDB: cfg.SurveyDriftSigmaDB,
			Interferers:        cfg.Interferers,
			EpochSlots:         cfg.EpochSlots,
			SampleWindowSlots:  cfg.SampleWindowSlots,
			ProbeEverySlots:    cfg.ProbeEverySlots,
			Metrics:            cfg.Metrics,
			Seed:               cfg.Seed + int64(iter),
			DriftSeed:          cfg.Seed, // same radio environment every iteration
			Faults:             cfg.Faults,
			// Each iteration executes reps·hyper slots, so the scenario
			// clock picks up exactly where the previous iteration left off.
			FaultOffsetSlots: iter * reps * hyper,
		})
		if err != nil {
			return out, fmt.Errorf("manage: iteration %d: %w", iter, err)
		}
		it := Iteration{Index: iter, MinPDR: 2}
		count := 0
		var sum float64
		for _, p := range res.PDRs() {
			if p < it.MinPDR {
				it.MinPDR = p
			}
			sum += p
			count++
		}
		it.MeanPDR = sum / float64(count)
		it.DegradedFlows = degradedFlowIDs(cfg.Flows, res, cfg.Detection.PRRThreshold)
		reports := detect.Classify(res.LinkEpochs, cfg.Detection)
		degraded := detect.Links(reports, detect.ReuseDegraded)
		it.Degraded = len(degraded)
		it.Channels = append([]int(nil), channels...)
		before := cfg.Schedule.Clone()
		// Reliability re-budgeting runs on every window the moment any flow
		// carries a target: drift below a TargetPDR is actionable even when
		// no flow has fallen under the (much looser) detection threshold.
		if targeted {
			if err := rebudgetPass(&cfg, res, &it); err != nil {
				return out, fmt.Errorf("manage: iteration %d: %w", iter, err)
			}
		}
		// healthy reflects delivery state only; a re-budget on an otherwise
		// healthy window keeps the loop alive one more iteration to verify
		// the new budget, but is not degradation.
		healthy := len(degraded) == 0 && len(it.DegradedFlows) == 0 &&
			len(it.Shortfalls) == 0
		if healthy {
			it.Health = Healthy
			if everDegraded {
				it.Health = Recovered
			}
			// Advance paroles; channels whose parole completes return to
			// their hopping-list positions and free their replacements.
			var rehabbed []int
			for ch, p := range paroles {
				p.clean++
				if p.clean < cfg.BlacklistParoleCleanIterations {
					continue
				}
				delete(paroles, ch)
				paroled[ch] = true
				restored := false
				for i, c := range channels {
					if c == p.replacement {
						channels[i] = ch
						restored = true
					}
				}
				if restored {
					delete(used, p.replacement)
					rehabbed = append(rehabbed, ch)
				}
			}
			if len(rehabbed) > 0 {
				sort.Ints(rehabbed)
				it.Rehabilitated = rehabbed
				it.Channels = append([]int(nil), channels...)
			}
			if it.Rebudgeted > 0 {
				delta, err := schedule.Diff(before, cfg.Schedule)
				if err != nil {
					return out, fmt.Errorf("manage: iteration %d: %w", iter, err)
				}
				it.DeltaChanges = len(delta)
				it.AffectedDevices = len(schedule.AffectedDevices(delta))
			}
			observeIteration(cfg.Metrics, it, reports, time.Since(iterStart), false)
			if cfg.OnIteration != nil {
				cfg.OnIteration(it)
			}
			out = append(out, it)
			if it.Rebudgeted == 0 && len(paroles) == 0 && len(it.Rehabilitated) == 0 {
				return out, nil
			}
			// Budget just changed, parole pending, or channels restored:
			// keep observing. This is progress, not a stall.
			stalls = 0
			continue
		}
		everDegraded = true
		it.Health = Degraded
		// A degraded window is not a clean verdict: paroles start over.
		for _, p := range paroles {
			p.clean = 0
		}
		if len(degraded) > 0 {
			rep, err := repair.RescheduleObserved(cfg.Schedule, cfg.Flows, degraded, cfg.Metrics)
			if err != nil {
				return out, fmt.Errorf("manage: iteration %d: %w", iter, err)
			}
			it.Moved = rep.Moved
			it.Unmovable = len(rep.Failed)
			if cfg.CompactAfterRepair && rep.Moved > 0 {
				if _, err := repair.Compact(cfg.Schedule, cfg.Flows); err != nil {
					return out, fmt.Errorf("manage: iteration %d: %w", iter, err)
				}
			}
		}
		it.SuspectNodes = suspectCrashedNodes(res)
		if len(it.SuspectNodes) > 0 {
			n, err := rerouteAround(cfg.Testbed, channels, cfg.Detection.PRRThreshold,
				cfg.Flows, cfg.Schedule, it.SuspectNodes, cfg.Metrics)
			if err != nil {
				return out, fmt.Errorf("manage: iteration %d: %w", iter, err)
			}
			it.Rerouted = n
		}
		// Blacklist channels on OtherCause evidence: reuse degradation is
		// repaired in time/offset space, but a link failing in both
		// conditions points at the medium itself. Degraded flows open the
		// gate too — the classifier only reports links carrying reuse
		// traffic, so a reuse-free schedule under interference would
		// otherwise never trigger it; the per-channel contrast test inside
		// blacklistChannels still separates interference from crashes.
		if len(detect.Links(reports, detect.OtherCause)) > 0 || len(it.DegradedFlows) > 0 {
			prev := append([]int(nil), channels...)
			var removed []int
			channels, removed = blacklistChannels(channels, res,
				blacklistMinAttempts, blacklistFailureRate, used)
			if len(removed) > 0 {
				it.Blacklisted = removed
				it.Channels = append([]int(nil), channels...)
				// First offenders earn parole; relapsed channels stay out
				// for good.
				if cfg.BlacklistParoleCleanIterations > 0 {
					for i := range prev {
						if prev[i] != channels[i] && !paroled[prev[i]] {
							paroles[prev[i]] = &parole{replacement: channels[i]}
						}
					}
				}
			}
		}
		delta, err := schedule.Diff(before, cfg.Schedule)
		if err != nil {
			return out, fmt.Errorf("manage: iteration %d: %w", iter, err)
		}
		it.DeltaChanges = len(delta)
		it.AffectedDevices = len(schedule.AffectedDevices(delta))
		progress := it.Moved > 0 || it.Rerouted > 0 || len(it.Blacklisted) > 0 ||
			it.Rebudgeted > 0
		if progress {
			stalls = 0
		} else {
			stalls++
			if stalls < cfg.MaxStalls && cfg.RetryBackoff > 0 {
				// Bounded exponential backoff before the retry.
				d := cfg.RetryBackoff << uint(stalls-1)
				if d > cfg.MaxRetryBackoff || d <= 0 {
					d = cfg.MaxRetryBackoff
				}
				it.Backoff = d
			}
		}
		observeIteration(cfg.Metrics, it, reports, time.Since(iterStart), !progress)
		if cfg.OnIteration != nil {
			cfg.OnIteration(it)
		}
		out = append(out, it)
		if stalls >= cfg.MaxStalls {
			// Out of ideas: report the degraded state instead of spinning.
			return out, nil
		}
		if it.Backoff > 0 {
			if err := sleepCtx(ctx, it.Backoff); err != nil {
				return out, fmt.Errorf("manage: %w", err)
			}
		}
	}
	return out, nil
}

// observeIteration flushes one completed cycle's signals to the sink: the
// verdict census of the classification pass, the repair outcome, delivery
// gauges, the cycle's wall-clock histogram sample, and one
// "manage.iteration" event carrying the same numbers for stream consumers.
func observeIteration(m obs.Sink, it Iteration, reports []detect.Report, elapsed time.Duration, stalled bool) {
	if m == nil {
		return
	}
	m.Count("manage.iterations", 1)
	for _, r := range reports {
		m.Count("manage.verdict."+verdictSlug(r.Verdict), 1)
	}
	m.Count("manage.degraded_links", int64(it.Degraded))
	m.Count("manage.repair.moved", int64(it.Moved))
	m.Count("manage.repair.unmovable", int64(it.Unmovable))
	m.Count("manage.delta_changes", int64(it.DeltaChanges))
	m.Gauge("manage.min_pdr", it.MinPDR)
	m.Gauge("manage.mean_pdr", it.MeanPDR)
	m.Gauge("manage.health", float64(it.Health))
	if it.Rerouted > 0 {
		m.Count("manage.recovery.rerouted_flows", int64(it.Rerouted))
	}
	if len(it.SuspectNodes) > 0 {
		m.Count("manage.recovery.suspect_nodes", int64(len(it.SuspectNodes)))
	}
	if len(it.Blacklisted) > 0 {
		m.Count("manage.recovery.blacklisted_channels", int64(len(it.Blacklisted)))
	}
	if len(it.Rehabilitated) > 0 {
		m.Count("manage.recovery.rehabilitated_channels", int64(len(it.Rehabilitated)))
	}
	if it.Rebudgeted > 0 {
		m.Count("manage.rebudget.flows", int64(it.Rebudgeted))
	}
	if it.RetriesShed > 0 {
		m.Count("manage.rebudget.shed_retries", int64(it.RetriesShed))
		m.Count("manage.rebudget.shed_flows", int64(len(it.ShedFlows)))
	}
	if len(it.Shortfalls) > 0 {
		m.Count("manage.rebudget.shortfalls", int64(len(it.Shortfalls)))
	}
	if stalled {
		m.Count("manage.recovery.stalls", 1)
	}
	if it.Backoff > 0 {
		m.Observe("manage.recovery.backoff_seconds", it.Backoff.Seconds())
	}
	m.Observe("manage.iteration_seconds", elapsed.Seconds())
	m.Event("manage.iteration", map[string]float64{
		"iteration":        float64(it.Index),
		"degraded":         float64(it.Degraded),
		"degraded_flows":   float64(len(it.DegradedFlows)),
		"moved":            float64(it.Moved),
		"unmovable":        float64(it.Unmovable),
		"delta_changes":    float64(it.DeltaChanges),
		"affected_devices": float64(it.AffectedDevices),
		"min_pdr":          it.MinPDR,
		"mean_pdr":         it.MeanPDR,
		"health":           float64(it.Health),
		"rerouted":         float64(it.Rerouted),
		"suspect_nodes":    float64(len(it.SuspectNodes)),
		"blacklisted":      float64(len(it.Blacklisted)),
		"rehabilitated":    float64(len(it.Rehabilitated)),
		"rebudgeted":       float64(it.Rebudgeted),
		"retries_shed":     float64(it.RetriesShed),
		"shortfalls":       float64(len(it.Shortfalls)),
	})
}
