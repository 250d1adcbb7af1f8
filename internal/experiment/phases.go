package experiment

import (
	"fmt"

	"wsan/internal/routing"
)

// ExtPhases quantifies release staggering, the WirelessHART practice of
// spreading superframe offsets: the same workloads are scheduled with all
// releases synchronized at slot 0 (the paper's model) and with random
// phases in [0, period−deadline]. Staggering relieves the slot-0 herd, so
// NR especially should gain schedulability.
func ExtPhases(env *Env, opt Options) ([]*Table, error) {
	spec := TrialSpec{Traffic: routing.PeerToPeer, Channels: 4, Flows: 100, PeriodExp: [2]int{0, 2}}
	t := &Table{
		Title: fmt.Sprintf("Ext: synchronized vs staggered releases (peer-to-peer, %d flows, %d channels, %s)",
			spec.Flows, spec.Channels, env.TB.Name),
		Header: []string{"releases", "NR", "RA", "RC"},
	}
	for _, stagger := range []bool{false, true} {
		spec.StaggerPhases = stagger
		label := "synchronized"
		if stagger {
			label = "staggered"
		}
		if err := env.ratioRow(t, spec, opt, label); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
