package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"

	"wsan"
	"wsan/internal/detect"
	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/repair"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// observe-repair: the paper's Sec. VI loop on 50-flow WUSTL schedules
// (4 channels, 1 s periods) under one WiFi interferer. A request clones a
// base schedule, executes one health-report epoch on the simulator, runs
// the K-S classifier and repairs the reuse-degraded links. Requests rotate
// over several flow sets, so that no single draw decides a run's numbers.
// Two requests in three start from a flow set's RC schedule (little reuse,
// light repair); every third from its RA schedule (heavy reuse, heavy
// repair).
type observeLoad struct {
	e         *env
	rng       *rand.Rand
	bases     []observeBase
	interf    []netsim.Interferer
	epoch     int // slots simulated per request
	digestOps int
	digest    hash.Hash

	last     *schedule.Schedule
	reports  []detect.Report
	repaired *repair.Result
	verdicts [4]int // detect.Meets .. detect.Inconclusive
	moved    int
	slots    int
}

// observeBase is one flow set with its RC and RA schedules.
type observeBase struct {
	flows  []*flow.Flow
	rc, ra *schedule.Schedule
}

const (
	observeChannels = 4
	observeWindow   = 500 // slots per PRR sample
)

func setupObserve(cfg config, rec *recorder, root int) (instance, error) {
	e, err := buildEnv(topology.WUSTLConfig(), observeChannels, rec, root)
	if err != nil {
		return nil, err
	}
	o := &observeLoad{
		e: e, rng: rand.New(rand.NewSource(cfg.seed)),
		epoch: 9000, digestOps: 30, digest: sha256.New(),
	}
	nflows, sets := 50, 16
	if cfg.tiny {
		nflows, sets, o.epoch, o.digestOps = 20, 2, 1000, 6
	}
	id := rec.begin("setup.workload", root, -1)
	defer rec.end(id)
	// Draw flow sets, keeping those both schedulers admit.
	for tries := 0; len(o.bases) < sets; tries++ {
		if tries == 100*sets {
			return nil, fmt.Errorf("too few flow sets both RA and RC schedule in %d draws", tries)
		}
		fs, err := flow.Generate(o.rng, e.gc, flow.GenConfig{NumFlows: nflows, Exclude: e.aps})
		if err != nil {
			return nil, err
		}
		if err := routing.Assign(fs, e.gc, routing.Config{Traffic: routing.PeerToPeer, APs: e.aps}); err != nil {
			return nil, err
		}
		var base [2]*scheduler.Result
		for k, alg := range []scheduler.Algorithm{scheduler.RC, scheduler.RA} {
			if base[k], err = scheduler.Run(fs, scheduler.Config{
				Algorithm: alg, NumChannels: observeChannels, RhoT: rhoT, HopGR: e.hop, Retransmit: true,
			}); err != nil {
				return nil, err
			}
		}
		if base[0].Schedulable && base[1].Schedulable {
			o.bases = append(o.bases, observeBase{fs, base[0].Schedule, base[1].Schedule})
		}
	}
	o.interf = []netsim.Interferer{wifiAtCentroid(e.tb, 1)}
	return o, nil
}

// wifiAtCentroid places one WiFi-style interferer (the paper's
// Raspberry-Pi pair) at the centroid of a floor's nodes, covering the
// first four channels.
func wifiAtCentroid(tb *topology.Testbed, floor int) netsim.Interferer {
	in := netsim.Interferer{
		Floor: floor, PowerDBm: -20, DutyCycle: 0.25, MeanBurstSlots: 20,
		Channels: topology.Channels(observeChannels),
	}
	n := 0
	for _, nd := range tb.Nodes {
		if nd.Floor == floor {
			in.X, in.Y, in.Z = in.X+nd.X, in.Y+nd.Y, in.Z+nd.Z
			n++
		}
	}
	in.X, in.Y, in.Z = in.X/float64(n), in.Y/float64(n), in.Z/float64(n)
	return in
}

func (o *observeLoad) measure(cfg config, r *run) error { return runClosed(o, cfg, r, o.digestOps) }
func (o *observeLoad) close()                           {}

func (o *observeLoad) op(i int, rec *recorder, root int) (class, error) {
	req := int64(i)
	b := &o.bases[i%len(o.bases)]
	c, base := light, b.rc
	if i/len(o.bases)%3 == 2 {
		c, base = heavy, b.ra
	}
	simSeed := o.rng.Int63()
	s, _ := timed(rec, "schedule.Clone", root, req, func() (*schedule.Schedule, error) {
		return base.Clone(), nil
	})
	sim := o.e.net.NewSimConfig(b.flows, &wsan.ScheduleResult{Schedule: s}, o.epoch/s.NumSlots(), simSeed)
	sim.Interferers = o.interf
	sim.EpochSlots, sim.SampleWindowSlots, sim.ProbeEverySlots = o.epoch, observeWindow, 250
	res, err := timed(rec, "netsim.Run", root, req, func() (*netsim.Result, error) {
		return netsim.Run(sim)
	})
	if err != nil {
		return c, err
	}
	reports, _ := timed(rec, "detect.Classify", root, req, func() ([]detect.Report, error) {
		return detect.Classify(res.LinkEpochs, detect.DefaultConfig()), nil
	})
	rep, err := timed(rec, "repair.RescheduleFromReports", root, req, func() (*repair.Result, error) {
		return repair.RescheduleFromReports(s, b.flows, reports)
	})
	if err != nil {
		return c, err
	}
	o.last, o.reports, o.repaired = s, reports, rep
	return c, nil
}

func (o *observeLoad) after(i int) error {
	if err := o.last.Validate(o.e.hop, rhoT); err != nil {
		return fmt.Errorf("repaired schedule: %w", err)
	}
	var v [4]int
	for _, rp := range o.reports {
		v[rp.Verdict-detect.Meets]++
	}
	for k := range v {
		o.verdicts[k] += v[k]
	}
	o.moved += o.repaired.Moved
	o.slots += o.epoch
	if i < o.digestOps {
		fmt.Fprintf(o.digest, "%v/%d/%d;", v, o.repaired.Moved, len(o.repaired.Failed))
	}
	return nil
}

func (o *observeLoad) finish(r *run) error {
	o.last, o.reports, o.repaired = nil, nil, nil // not state the workload keeps
	r.digest = fmt.Sprintf("%x", o.digest.Sum(nil)[:8])
	r.counts["netsim.slots"] = float64(o.slots)
	r.counts["detect.verdict_meets"] = float64(o.verdicts[0])
	r.counts["detect.verdict_reuse"] = float64(o.verdicts[1])
	r.counts["detect.verdict_other"] = float64(o.verdicts[2])
	r.counts["detect.verdict_inconclusive"] = float64(o.verdicts[3])
	r.counts["repair.moved"] = float64(o.moved)
	return nil
}
