package main

// The metric catalogue. BENCHMARK.json lists exactly these names (the tests
// hold the two in step): an untraced run reports every end-to-end metric, a
// traced run every per-layer metric, on every workload. A layer a workload
// never calls reads 0 there.

// metric is one reported value's name and unit.
type metric struct{ name, unit string }

// endToEnd is what a user of the network manager sees. Latency metrics
// cover every operation of the workload; light and heavy name the
// workload's two contrasting request classes (see README.md).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"light_p50_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_live_mb", "MB"},
}

// setupSpans are timed around the calls every set-up makes; only their
// self time is reported. setup.workload is the workload's own set-up (flow
// pools, base schedules, churn warm-up, daemon start and priming).
var setupSpans = []string{
	"topology.Generate",
	"topology.CommGraph",
	"topology.ReuseGraph",
	"graph.AllPairsHop",
	"wsan.NewNetwork",
	"setup.workload",
}

// opSpans are timed around the calls operations make; each reports calls,
// p50_us, p99_us and self_s. "op" is the operation itself, so its self time
// is the part no layer accounts for.
var opSpans = []string{
	"op",
	// plan-100f
	"flow.Generate",
	"routing.Assign",
	"budget.Apply",
	"scheduler.Run",
	"analysis.DelayAnalysis",
	"analysis.Latencies",
	// churn-500f
	"scheduler.AddFlowDelta",
	"scheduler.RemoveFlowDelta",
	"scheduler.RerouteFlowDelta",
	"scheduler.ApplyDeltaBatch",
	"wsan.RouteAvoiding",
	// observe-repair
	"schedule.Clone",
	"netsim.Run",
	"detect.Classify",
	"repair.RescheduleFromReports",
	// daemon-mix: the generator's lateness, the submit round trip, the
	// daemon's own job timestamps, and the event's trip back.
	"loadgen.lag",
	"wsanclient.SubmitJob",
	"server.queue_wait",
	"server.run.schedule",
	"server.run.reschedule",
	"sse.delivery",
	// daemon-mix, after the measured phase (the artifact oracle's fetches)
	"wsanclient.ArtifactPart",
}

// layerCounts are counted where the work happens.
var layerCounts = []metric{
	{"scheduler.schedulable_ratio", "ratio"},
	{"scheduler.rung_none", "count"},
	{"scheduler.rung_evict", "count"},
	{"scheduler.rung_cascade", "count"},
	{"scheduler.rung_full", "count"},
	{"scheduler.infeasible", "count"},
	{"scheduler.direct_ratio", "ratio"},
	{"netsim.slots", "count"},
	{"detect.verdict_meets", "count"},
	{"detect.verdict_reuse", "count"},
	{"detect.verdict_other", "count"},
	{"detect.verdict_inconclusive", "count"},
	{"repair.moved", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.events_dropped", "count"},
	{"alloc_kb_per_op", "KB"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
}

// perLayer expands the catalogue into every per-layer metric name.
func perLayer() []metric {
	var out []metric
	for _, s := range setupSpans {
		out = append(out, metric{s + ".self_s", "s"})
	}
	for _, s := range opSpans {
		out = append(out,
			metric{s + ".calls", "count"},
			metric{s + ".p50_us", "us"},
			metric{s + ".p99_us", "us"},
			metric{s + ".self_s", "s"})
	}
	return append(out, layerCounts...)
}
