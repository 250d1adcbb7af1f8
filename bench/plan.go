package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"

	"wsan/internal/analysis"
	"wsan/internal/budget"
	"wsan/internal/flow"
	"wsan/internal/routing"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// plan-100f: whole-workload admission at the paper's Fig. 6 operating point
// (Indriya, 5 channels, peer-to-peer, periods 2^0–2^2 s). Every request is a
// fresh flow set of 60, 80 (the light class), 100 or 120 flows (the heavy
// class) taken through the full manager pipeline; half of them plan 0.99
// reliability budgets first, which multiplies the transmissions RC must
// place. Unschedulable draws are expected outcomes, not failures.
type planLoad struct {
	e         *env
	rng       *rand.Rand
	sizes     []int
	digestOps int
	digest    hash.Hash

	last        *scheduler.Result
	lastFlows   int
	schedulable int
}

const planChannels = 5

func setupPlan(cfg config, rec *recorder, root int) (instance, error) {
	e, err := buildEnv(topology.IndriyaConfig(), planChannels, rec, root)
	if err != nil {
		return nil, err
	}
	p := &planLoad{
		e:         e,
		rng:       rand.New(rand.NewSource(cfg.seed)),
		sizes:     []int{60, 80, 100, 120},
		digestOps: 200,
		digest:    sha256.New(),
	}
	if cfg.tiny {
		p.sizes, p.digestOps = []int{20, 30}, 8
	}
	return p, nil
}

func (p *planLoad) measure(cfg config, r *run) error { return runClosed(p, cfg, r, p.digestOps) }
func (p *planLoad) close()                           {}

func (p *planLoad) op(i int, rec *recorder, root int) (class, error) {
	k := p.rng.Intn(len(p.sizes))
	n := p.sizes[k]
	c := light
	if 2*k >= len(p.sizes) {
		c = heavy
	}
	budgeted := p.rng.Intn(2) == 0
	req := int64(i)
	fs, err := timed(rec, "flow.Generate", root, req, func() ([]*flow.Flow, error) {
		return flow.Generate(p.rng, p.e.gc, flow.GenConfig{NumFlows: n, MinPeriodExp: 0, MaxPeriodExp: 2, Exclude: p.e.aps})
	})
	if err != nil {
		return c, err
	}
	if _, err := timed(rec, "routing.Assign", root, req, func() (struct{}, error) {
		return struct{}{}, routing.Assign(fs, p.e.gc, routing.Config{Traffic: routing.PeerToPeer, APs: p.e.aps})
	}); err != nil {
		return c, err
	}
	if budgeted {
		for _, f := range fs {
			f.TargetPDR = 0.99
		}
		if _, err := timed(rec, "budget.Apply", root, req, func() ([]budget.Assignment, error) {
			return budget.Apply(fs, p.e.net.LinkPRR, 0, nil)
		}); err != nil {
			return c, err
		}
	}
	res, err := timed(rec, "scheduler.Run", root, req, func() (*scheduler.Result, error) {
		return scheduler.Run(fs, scheduler.Config{
			Algorithm: scheduler.RC, NumChannels: planChannels, RhoT: rhoT, HopGR: p.e.hop, Retransmit: true,
		})
	})
	if err != nil {
		return c, err
	}
	if _, err := timed(rec, "analysis.DelayAnalysis", root, req, func() ([]analysis.DelayBound, error) {
		return analysis.DelayAnalysis(fs, planChannels, 2)
	}); err != nil {
		return c, err
	}
	if res.Schedulable {
		if _, err := timed(rec, "analysis.Latencies", root, req, func() ([]analysis.FlowLatency, error) {
			return analysis.Latencies(fs, res.Schedule)
		}); err != nil {
			return c, err
		}
	}
	p.last, p.lastFlows = res, n
	return c, nil
}

func (p *planLoad) after(i int) error {
	if p.last.Schedulable {
		p.schedulable++
		if err := p.last.Schedule.Validate(p.e.hop, rhoT); err != nil {
			return err
		}
	}
	if i < p.digestOps {
		fmt.Fprintf(p.digest, "%d:%v:%d;", p.lastFlows, p.last.Schedulable, p.last.Schedule.Len())
	}
	return nil
}

func (p *planLoad) finish(r *run) error {
	p.last = nil // a request's result is not state the workload keeps
	r.digest = fmt.Sprintf("%x", p.digest.Sum(nil)[:8])
	r.counts["scheduler.schedulable_ratio"] = float64(p.schedulable) / float64(r.attempted)
	return nil
}
