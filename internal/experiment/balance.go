package experiment

import (
	"fmt"

	"wsan/internal/routing"
)

// ExtBalance measures access-point load balancing, the routing-side remedy
// for the AP bottleneck that makes centralized traffic hard (Sec. VII-A
// observes reuse helps centralized workloads less because conflicts
// concentrate near the access points). Nearest-AP routing can pile both of
// a region's uplinks and downlinks onto one AP; balancing spreads
// equidistant endpoints across APs by assigned rate.
func ExtBalance(env *Env, opt Options) ([]*Table, error) {
	spec := TrialSpec{Traffic: routing.Centralized, Flows: 60, PeriodExp: [2]int{0, 2}}
	t := &Table{
		Title: fmt.Sprintf("Ext: nearest-AP vs load-balanced AP selection (centralized, %d flows, %s)",
			spec.Flows, env.TB.Name),
		Header: []string{"channels", "routing", "NR", "RA", "RC"},
	}
	for _, nch := range []int{3, 4, 5} {
		spec.Channels = nch
		for _, balance := range []bool{false, true} {
			spec.BalanceAPs = balance
			label := "nearest"
			if balance {
				label = "balanced"
			}
			if err := env.ratioRow(t, spec, opt, itoa(nch), label); err != nil {
				return nil, err
			}
		}
	}
	return []*Table{t}, nil
}
