package experiment

import (
	"fmt"

	"wsan/internal/stats"
)

// ExtBursty re-runs the Fig. 8 reliability experiment under temporally
// correlated (bursty) fading. The paper's source-routing scheme retries in
// the very next slot; when fades last several slots the retry fails with
// the primary, so every algorithm loses worst-case PDR — but the ordering
// (RC ≈ NR, RA worst) must survive, since reuse interference and fading
// bursts are independent mechanisms.
func ExtBursty(env *Env, opt Options) ([]*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Ext: worst-case PDR under bursty fading (Fig 8 setup, %s)", env.TB.Name),
		Header: []string{"fading", "NR min", "RA min", "RC min", "NR med", "RA med", "RC med"},
	}
	for _, rho := range []float64{0, 0.8} {
		p := DefaultReliabilityParams()
		p.FadingCorrelation = rho
		sets, _, err := env.reliabilitySets(p, opt)
		if err != nil {
			return nil, fmt.Errorf("ext-bursty: %w", err)
		}
		minOf := map[string]float64{}
		medOf := map[string][]float64{}
		for _, alg := range allAlgs {
			minOf[alg.String()] = 2
		}
		for _, fs := range sets {
			for _, alg := range allAlgs {
				pdrs, err := env.simulate(fs, alg, p, fs.seed)
				if err != nil {
					return nil, fmt.Errorf("ext-bursty: %w", err)
				}
				for _, v := range pdrs {
					if v < minOf[alg.String()] {
						minOf[alg.String()] = v
					}
				}
				medOf[alg.String()] = append(medOf[alg.String()], stats.Median(pdrs))
			}
		}
		label := "i.i.d."
		if rho > 0 {
			label = fmt.Sprintf("bursty ρ=%.1f", rho)
		}
		t.Rows = append(t.Rows, []string{
			label,
			f3(minOf["NR"]), f3(minOf["RA"]), f3(minOf["RC"]),
			f3(stats.Median(medOf["NR"])), f3(stats.Median(medOf["RA"])), f3(stats.Median(medOf["RC"])),
		})
	}
	return []*Table{t}, nil
}
