package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"wsan/internal/flow"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/soak"
	"wsan/internal/topology"
)

// churn-500f: control loops join and leave running plants at the soak
// operating point (Indriya, 8 channels, periods 2^2–2^4 s, 500 active flows
// per plant after warm-up). Single adds, removes and relay-failure reroutes
// (the light class) alternate with an 8-flow node-fault batch every 50th
// operation on a plant (the heavy class). The delta scheduler and its
// repair ladder do the work against pinned grids; a full reschedule happens
// only on the rare bottom rung. How often the ladder descends depends on the
// flow pool, so the run moves between several independent plants in blocks
// of operations: one pool's luck would otherwise decide its throughput.
type churnLoad struct {
	e      *env
	pcfg   scheduler.Config
	plants []*plant

	target        int // steady-state active flows per plant
	block         int // consecutive operations on one plant
	batchEvery    int
	validateEvery int // applied deltas between a plant's validations
	digestOps     int
	digest        string
}

// plant is one live schedule and its flow pool.
type plant struct {
	c        *churnLoad
	rng      *rand.Rand
	sched    *schedule.Schedule
	active   []*flow.Flow // priority (ID) order, as the delta APIs require
	inactive []*flow.Flow

	ops, applied, sinceValidate int
	rungs                       [4]int // applied deltas per repair rung
	infeasible                  int    // operations the ladder rolled back
}

const (
	churnChannels  = 8
	churnBatchSize = 8
)

func setupChurn(cfg config, rec *recorder, root int) (instance, error) {
	e, err := buildEnv(topology.IndriyaConfig(), churnChannels, rec, root)
	if err != nil {
		return nil, err
	}
	c := &churnLoad{
		e: e,
		pcfg: scheduler.Config{
			Algorithm: scheduler.RC, NumChannels: churnChannels, RhoT: rhoT, HopGR: e.hop,
		},
		target: 500, block: 1000, batchEvery: 50, validateEvery: 1000, digestOps: 2000,
	}
	plants := 16
	if cfg.tiny {
		plants, c.target, c.block, c.batchEvery, c.validateEvery, c.digestOps = 2, 60, 20, 10, 50, 40
	}
	id := rec.begin("setup.workload", root, -1)
	defer rec.end(id)
	seeds := rand.New(rand.NewSource(cfg.seed))
	for k := 0; k < plants; k++ {
		p, err := c.newPlant(seeds.Int63())
		if err != nil {
			return nil, err
		}
		c.plants = append(c.plants, p)
	}
	return c, nil
}

// newPlant draws a pool of twice the target flows and admits the first
// target of them through the same delta path the churn uses; a flow that
// does not fit stays in the pool.
func (c *churnLoad) newPlant(seed int64) (*plant, error) {
	p := &plant{c: c, rng: rand.New(rand.NewSource(seed))}
	pool, err := flow.Generate(p.rng, c.e.gc, flow.GenConfig{
		NumFlows: 2 * c.target, MinPeriodExp: 2, MaxPeriodExp: 4, Exclude: c.e.aps,
	})
	if err != nil {
		return nil, err
	}
	if err := routing.Assign(pool, c.e.gc, routing.Config{Traffic: routing.PeerToPeer, APs: c.e.aps}); err != nil {
		return nil, err
	}
	hyper, err := flow.Hyperperiod(pool)
	if err != nil {
		return nil, err
	}
	if p.sched, err = schedule.New(hyper, churnChannels, c.e.gc.Len()); err != nil {
		return nil, err
	}
	for _, f := range pool[:c.target] {
		res, err := scheduler.AddFlowDelta(p.sched, p.active, f, c.pcfg)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if res.Schedulable {
			p.insertActive(f)
		} else {
			p.inactive = append(p.inactive, f)
		}
	}
	p.inactive = append(p.inactive, pool[c.target:]...)
	return p, nil
}

func (c *churnLoad) measure(cfg config, r *run) error { return runClosed(c, cfg, r, c.digestOps) }
func (c *churnLoad) close()                           {}

// plantOf is the plant operation i works on.
func (c *churnLoad) plantOf(i int) *plant { return c.plants[i/c.block%len(c.plants)] }

// op mirrors the soak harness's self-balancing mix: below the active-flow
// target adds dominate, above it removals do.
func (c *churnLoad) op(i int, rec *recorder, root int) (class, error) {
	p := c.plantOf(i)
	p.ops++
	req := int64(i)
	if p.ops%c.batchEvery == 0 {
		return heavy, p.nodeFault(rec, root, req)
	}
	addCut := 40
	if len(p.active) >= c.target {
		addCut = 15
	}
	r := p.rng.Intn(100)
	switch {
	case r < addCut && len(p.inactive) > 0:
		return light, p.add(rec, root, req)
	case r < 55 && len(p.active) > 1:
		return light, p.remove(rec, root, req)
	default:
		return light, p.reroute(rec, root, req)
	}
}

func (p *plant) add(rec *recorder, root int, req int64) error {
	k := p.rng.Intn(len(p.inactive))
	f := p.inactive[k]
	res, err := timed(rec, "scheduler.AddFlowDelta", root, req, func() (*scheduler.DeltaResult, error) {
		return scheduler.AddFlowDelta(p.sched, p.active, f, p.c.pcfg)
	})
	if err != nil {
		return err
	}
	if !res.Schedulable {
		p.infeasible++
		return nil
	}
	p.inactive = append(p.inactive[:k], p.inactive[k+1:]...)
	p.insertActive(f)
	p.commit(res.Fallback)
	return nil
}

func (p *plant) remove(rec *recorder, root int, req int64) error {
	k := p.rng.Intn(len(p.active))
	f := p.active[k]
	if _, err := timed(rec, "scheduler.RemoveFlowDelta", root, req, func() (*scheduler.DeltaResult, error) {
		return scheduler.RemoveFlowDelta(p.sched, f.ID, nil)
	}); err != nil {
		return err
	}
	p.active = append(p.active[:k], p.active[k+1:]...)
	p.inactive = append(p.inactive, f)
	p.commit(scheduler.FallbackNone)
	return nil
}

// reroute fails a random relay of a random multi-hop flow and detours the
// flow around it. No detour is an expected outcome, not a failure.
func (p *plant) reroute(rec *recorder, root int, req int64) error {
	start := p.rng.Intn(len(p.active))
	var f *flow.Flow
	for k := range p.active {
		if g := p.active[(start+k)%len(p.active)]; len(g.Route) >= 2 {
			f = g
			break
		}
	}
	if f == nil {
		return nil
	}
	relay := f.Route[p.rng.Intn(len(f.Route)-1)].To
	detour, ok := p.detour(f, relay, rec, root, req)
	if !ok {
		return nil
	}
	res, err := timed(rec, "scheduler.RerouteFlowDelta", root, req, func() (*scheduler.DeltaResult, error) {
		return scheduler.RerouteFlowDelta(p.sched, p.active, f.ID, detour, p.c.pcfg)
	})
	if err != nil {
		return err
	}
	if !res.Schedulable {
		p.infeasible++
		return nil
	}
	f.Route = detour
	f.TxBudget = flow.AdaptBudget(f.TxBudget, len(detour))
	p.commit(res.Fallback)
	return nil
}

// nodeFault crashes a random node and detours up to churnBatchSize of the
// flows relaying through it in one atomic batch.
func (p *plant) nodeFault(rec *recorder, root int, req int64) error {
	node := p.rng.Intn(p.c.e.gc.Len())
	var ops []scheduler.BatchOp
	for _, f := range p.active {
		if len(ops) == churnBatchSize {
			break
		}
		if f.Src == node || f.Dst == node || !crosses(f.Route, node) {
			continue
		}
		if detour, ok := p.detour(f, node, rec, root, req); ok {
			ops = append(ops, scheduler.BatchOp{Kind: scheduler.BatchReroute, FlowID: f.ID, Route: detour})
		}
	}
	if len(ops) == 0 {
		return nil
	}
	res, err := timed(rec, "scheduler.ApplyDeltaBatch", root, req, func() (*scheduler.BatchResult, error) {
		return scheduler.ApplyDeltaBatch(p.sched, p.active, ops, p.c.pcfg)
	})
	if err != nil {
		return err
	}
	if !res.Schedulable {
		p.infeasible++
		return nil
	}
	p.active = res.Flows
	for _, fb := range res.Fallbacks {
		p.commit(fb)
	}
	return nil
}

// detour asks the public Network for f's minimum-hop route around node; ok
// is false when none exists or it is f's current route.
func (p *plant) detour(f *flow.Flow, node int, rec *recorder, root int, req int64) ([]flow.Link, bool) {
	route, err := timed(rec, "wsan.RouteAvoiding", root, req, func() ([]flow.Link, error) {
		return p.c.e.net.RouteAvoiding(f.Src, f.Dst, []int{node})
	})
	return route, err == nil && !slices.Equal(route, f.Route)
}

// commit counts one applied delta on its repair rung.
func (p *plant) commit(fb scheduler.Fallback) {
	p.applied++
	p.sinceValidate++
	p.rungs[fb]++
}

func (p *plant) insertActive(f *flow.Flow) {
	k := sort.Search(len(p.active), func(k int) bool { return p.active[k].ID >= f.ID })
	p.active = slices.Insert(p.active, k, f)
}

func (c *churnLoad) after(i int) error {
	p := c.plantOf(i)
	if p.sinceValidate >= c.validateEvery {
		p.sinceValidate = 0
		if err := p.sched.Validate(c.e.hop, rhoT); err != nil {
			return err
		}
	}
	if i == c.digestOps-1 {
		h := sha256.New()
		for _, p := range c.plants {
			fmt.Fprintf(h, "%s/%v;", soak.Digest(p.sched), p.rungs)
		}
		c.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	}
	return nil
}

func (c *churnLoad) finish(r *run) error {
	var rungs [4]int
	applied, infeasible := 0, 0
	for _, p := range c.plants {
		if err := p.sched.Validate(c.e.hop, rhoT); err != nil {
			return err
		}
		for k, n := range p.rungs {
			rungs[k] += n
		}
		applied += p.applied
		infeasible += p.infeasible
	}
	r.digest = c.digest
	r.counts["scheduler.rung_none"] = float64(rungs[scheduler.FallbackNone])
	r.counts["scheduler.rung_evict"] = float64(rungs[scheduler.FallbackEvict])
	r.counts["scheduler.rung_cascade"] = float64(rungs[scheduler.FallbackCascade])
	r.counts["scheduler.rung_full"] = float64(rungs[scheduler.FallbackFull])
	r.counts["scheduler.infeasible"] = float64(infeasible)
	if applied > 0 {
		r.counts["scheduler.direct_ratio"] = float64(rungs[scheduler.FallbackNone]) / float64(applied)
	}
	return nil
}

func crosses(route []flow.Link, node int) bool {
	for _, l := range route {
		if l.From == node || l.To == node {
			return true
		}
	}
	return false
}
