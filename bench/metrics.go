package main

import "sort"

// metricDef declares one reported metric. BENCHMARK.json repeats the
// name, unit, direction and bound of every entry; TestBenchmarkJSON holds
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; per-layer metrics
	// have none.
	Bound float64
}

// endToEnd are the metrics a user of the simulator pays or trusts: host
// time and memory per simulated request, and the simulated goodput. Host
// time unless prefixed sim_. Each bound is at least three times the
// run-to-run spread measured across ten seeds on a shared 2-vCPU box
// (README.md, "Why these bounds"); the allocation metrics keep the
// ISSUE's 2 %.
var endToEnd = []metricDef{
	{"sim_req_per_wall_s", "req/s", "higher", 0.25},
	{"allocs_per_req", "allocs", "lower", 0.02},
	{"bytes_per_req", "B", "lower", 0.02},
	{"live_heap_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"sim_goodput_rps", "req/s", "higher", 0.03},
}

// simStats are the ISSUE's other two end-to-end metrics. They are exact
// for a fixed seed but sim_failed_share is 0 on three workloads and
// sim_p99_ms spreads 37 % across seeds on the paper cell, so the driver's
// contract (never 0, steady across seeds) files them with the per-layer
// metrics; `go run ./bench` prints them beside the end-to-end ones.
var simStats = []metricDef{
	{"sim_p99_ms", "ms", "lower", 0},
	{"sim_failed_share", "ratio", "lower", 0},
}

// perLayerDefs lists every metric of the -trace pass: the simulated
// statistics, three per span name, the engine and process counters, and
// the probe table's.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), simStats...)
	for k := spanKind(0); k < numSpanKinds; k++ {
		defs = append(defs,
			metricDef{spanNames[k] + ".count", "count", "lower", 0},
			metricDef{spanNames[k] + ".total_ms", "ms", "lower", 0},
			metricDef{spanNames[k] + ".self_ms", "ms", "lower", 0},
		)
	}
	defs = append(defs,
		metricDef{"des.events", "count", "lower", 0},
		metricDef{"des.events_per_req", "count", "lower", 0},
		metricDef{"des.pending_depth_p50", "count", "lower", 0},
		metricDef{"bench.trace_overhead_pct", "%", "lower", 0},
		metricDef{"bench.layers_unattributed_pct", "%", "lower", 0},
		metricDef{"process.peak_rss_mb", "MiB", "lower", 0},
		metricDef{"process.cpu_s", "s", "lower", 0},
		metricDef{"experiment.rep_wall_s_min", "s", "lower", 0},
		metricDef{"experiment.rep_wall_s_max", "s", "lower", 0},
		metricDef{"experiment.observer_overhead_pct", "%", "lower", 0},
		metricDef{"experiment.trajectory_matches_golden", "count", "higher", 0},
		metricDef{"scaling.actions", "count", "lower", 0},
		metricDef{"scaling.estimates_count", "count", "higher", 0},
		metricDef{"cluster.vms_final", "count", "lower", 0},
		metricDef{"admission.sheds", "count", "lower", 0},
	)
	for _, p := range probes {
		defs = append(defs, p.defs()...)
	}
	return defs
}

// value is one measured metric in the result line the driver reads.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of vs (the mean of the middle two for an
// even count). It panics on an empty slice.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
