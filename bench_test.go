// Benchmarks regenerating the figures of the paper's evaluation at reduced
// scale (the full-scale runs are `wsansim fig1 … fig11`). Fig. 1, the
// three schedulers and the simulator are timed by BenchmarkGolden
// (golden_test.go), which runs the same inputs its checksums pin. Run with:
//
//	go test -bench=. -benchmem
package wsan_test

import (
	"sync"
	"testing"

	"wsan"
	"wsan/internal/experiment"
)

// benchOpt keeps figure benchmarks fast while exercising the identical code
// paths as the full-scale CLI runs.
var benchOpt = experiment.Options{Trials: 2, Seed: 1}

var (
	envOnce    sync.Once
	indriyaEnv *experiment.Env
	wustlEnv   *experiment.Env
	envErr     error
)

func benchEnvs(tb testing.TB) (*experiment.Env, *experiment.Env) {
	tb.Helper()
	envOnce.Do(func() {
		indriyaEnv, envErr = experiment.NewIndriyaEnv(1)
		if envErr != nil {
			return
		}
		wustlEnv, envErr = experiment.NewWUSTLEnv(1)
	})
	if envErr != nil {
		tb.Fatal(envErr)
	}
	return indriyaEnv, wustlEnv
}

func benchFigure(b *testing.B, fn func() ([]*experiment.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2 (schedulable ratio, peer-to-peer,
// Indriya).
func BenchmarkFig2(b *testing.B) {
	ind, _ := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig2(ind, benchOpt) })
}

// BenchmarkFig3 regenerates Fig. 3 (schedulable ratio, peer-to-peer, WUSTL).
func BenchmarkFig3(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig3(wustl, benchOpt) })
}

// BenchmarkFig4 regenerates Fig. 4 (transmissions per channel, RA vs RC).
func BenchmarkFig4(b *testing.B) {
	ind, _ := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig4(ind, benchOpt) })
}

// BenchmarkFig5 regenerates Fig. 5 (channel-reuse hop count, RA vs RC).
func BenchmarkFig5(b *testing.B) {
	ind, _ := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig5(ind, benchOpt) })
}

// BenchmarkFig6 regenerates Fig. 6 (scheduler execution time).
func BenchmarkFig6(b *testing.B) {
	ind, _ := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig6(ind, benchOpt) })
}

// BenchmarkFig7 regenerates Fig. 7 (testbed topology summary).
func BenchmarkFig7(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig7(wustl, benchOpt) })
}

// BenchmarkFig8 regenerates Fig. 8 (PDR box plots) at reduced simulation
// scale.
func BenchmarkFig8(b *testing.B) {
	_, wustl := benchEnvs(b)
	p := experiment.DefaultReliabilityParams()
	p.NumFlowSets = 1
	p.Hyperperiods = 10
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig8Scaled(wustl, benchOpt, p) })
}

// BenchmarkFig9 regenerates Fig. 9 (Tx/channel for the reliability flow
// sets).
func BenchmarkFig9(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig9(wustl, benchOpt) })
}

func scaledDetection() experiment.DetectionParams {
	p := experiment.DefaultDetectionParams()
	p.Epochs = 1
	p.EpochSlots = 9_000
	p.WindowSlots = 500
	p.ProbeEverySlots = 200
	return p
}

// BenchmarkFig10 regenerates Fig. 10 (detection policy PRRs) at reduced
// horizon.
func BenchmarkFig10(b *testing.B) {
	_, wustl := benchEnvs(b)
	p := scaledDetection()
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig10Scaled(wustl, benchOpt, p) })
}

// BenchmarkFig11 regenerates Fig. 11 (rejected links per epoch) at reduced
// horizon.
func BenchmarkFig11(b *testing.B) {
	_, wustl := benchEnvs(b)
	p := scaledDetection()
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.Fig11Scaled(wustl, benchOpt, p) })
}

// BenchmarkExtLatency regenerates the latency extension experiment.
func BenchmarkExtLatency(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtLatency(wustl, benchOpt) })
}

// BenchmarkExtRhoSweep regenerates the ρ_t sensitivity extension experiment.
func BenchmarkExtRhoSweep(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtRhoSweep(wustl, benchOpt) })
}

// BenchmarkExtPriority regenerates the DM-vs-RM extension experiment.
func BenchmarkExtPriority(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtPriority(wustl, benchOpt) })
}

// BenchmarkExtFixedRho regenerates the ρ-search ablation.
func BenchmarkExtFixedRho(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtFixedRho(wustl, benchOpt) })
}

// BenchmarkExtRepair regenerates the detect→repair loop at reduced scale.
func BenchmarkExtRepair(b *testing.B) {
	_, wustl := benchEnvs(b)
	p := experiment.DefaultDetectionParams()
	p.Epochs = 1
	p.EpochSlots = 9_000
	p.WindowSlots = 500
	p.ProbeEverySlots = 200
	benchFigure(b, func() ([]*experiment.Table, error) {
		return experiment.ExtRepairScaled(wustl, benchOpt, p)
	})
}

// BenchmarkExtSeeds regenerates the topology-seed robustness sweep.
func BenchmarkExtSeeds(b *testing.B) {
	ind, _ := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtSeeds(ind, benchOpt) })
}

// BenchmarkExtPhases regenerates the release-staggering comparison.
func BenchmarkExtPhases(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtPhases(wustl, benchOpt) })
}

// BenchmarkExtDetector regenerates the detector-comparison study.
func BenchmarkExtDetector(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtDetector(wustl, benchOpt) })
}

// BenchmarkExtManage regenerates the closed-management-loop study.
func BenchmarkExtManage(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtManage(wustl, benchOpt) })
}

// BenchmarkExtDiversity regenerates the route-diversity sweep.
func BenchmarkExtDiversity(b *testing.B) {
	ind, _ := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtDiversity(ind, benchOpt) })
}

// BenchmarkExtBursty regenerates the bursty-fading reliability comparison
// at reduced scale.
func BenchmarkExtBursty(b *testing.B) {
	_, wustl := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtBursty(wustl, benchOpt) })
}

// BenchmarkExtBalance regenerates the AP load-balancing comparison.
func BenchmarkExtBalance(b *testing.B) {
	ind, _ := benchEnvs(b)
	benchFigure(b, func() ([]*experiment.Table, error) { return experiment.ExtBalance(ind, benchOpt) })
}

// BenchmarkRouteAvoiding times the detour query a reroute delta makes:
// a minimum-hop route on Indriya's communication graph (8 channels, as in
// the churn workload) around one relay of the flow's current route.
func BenchmarkRouteAvoiding(b *testing.B) {
	tb, err := wsan.GenerateIndriya(1)
	if err != nil {
		b.Fatal(err)
	}
	net, err := wsan.NewNetwork(tb, 8)
	if err != nil {
		b.Fatal(err)
	}
	type query struct{ src, dst, avoid int }
	var qs []query
	n := tb.NumNodes()
	for src := 0; src < n && len(qs) < 64; src++ {
		dst := (src*7 + 13) % n
		route, err := net.RouteAvoiding(src, dst, nil)
		if err != nil || len(route) < 2 {
			continue
		}
		qs = append(qs, query{src, dst, route[len(route)/2].From})
	}
	if len(qs) == 0 {
		b.Fatal("no multi-hop routes")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		routeSink, _ = net.RouteAvoiding(q.src, q.dst, []int{q.avoid})
	}
}

// routeSink keeps BenchmarkRouteAvoiding's result live.
var routeSink []wsan.Link
