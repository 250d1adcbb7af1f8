package experiment

import (
	"fmt"

	"wsan/internal/routing"
	"wsan/internal/topology"
)

// ExtSeeds checks that the headline schedulability result is not an
// artifact of one synthetic topology: it re-runs the Fig 2(a)-style sweep
// (peer-to-peer, heavy load, 3–5 channels) on several independently
// generated Indriya-like testbeds and reports the per-seed ratios plus the
// spread. A reproduction claim survives only if NR ≪ RA≈RC holds for every
// seed.
func ExtSeeds(env *Env, opt Options) ([]*Table, error) {
	const (
		numSeeds = 5
		numFlows = 100
	)
	t := &Table{
		Title: fmt.Sprintf("Ext: topology-seed robustness (peer-to-peer, %d flows, indriya-class testbeds)",
			numFlows),
		Header: []string{"topo seed", "channels", "NR", "RA", "RC"},
	}
	_ = env // the sweep generates its own testbeds; env fixes the class
	for seed := int64(1); seed <= numSeeds; seed++ {
		tb, err := topology.Indriya(seed)
		if err != nil {
			return nil, fmt.Errorf("ext-seeds: %w", err)
		}
		seedEnv := NewEnv(tb)
		for _, nch := range []int{3, 4, 5} {
			spec := TrialSpec{Traffic: routing.PeerToPeer, Channels: nch, Flows: numFlows, PeriodExp: [2]int{0, 2}}
			if err := seedEnv.ratioRow(t, spec, opt, itoa(int(seed)), itoa(nch)); err != nil {
				return nil, fmt.Errorf("ext-seeds seed %d: %w", seed, err)
			}
		}
	}
	return []*Table{t}, nil
}
