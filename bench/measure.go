package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"conscale/internal/des"
	"conscale/internal/experiment"
)

// processStart approximates the child's start: package initialisation
// runs a few milliseconds after exec. The first set-up round is timed
// from here, so set-up includes runtime start and flag parsing.
var processStart = time.Now()

const (
	// A run sets up (config building, spec parsing, the one-simulated-
	// second warm-up call that runs every constructor) at least
	// minSetupRounds times, and goes on until setupBudget is spent or
	// maxSetupRounds are done; setup_s is the median round. The paper
	// cell sets up in ~7 ms, which only many rounds make steady.
	minSetupRounds = 5
	maxSetupRounds = 101
	setupBudget    = time.Second
	// defaultReps is the repetition count without -seconds; with it, a
	// run repeats until the measured time reaches the budget, at least
	// minReps times so the determinism check has two runs to compare.
	defaultReps = 3
	minReps     = 2
	// smokeDur is the size of the in-run observer-inertness cross-check.
	smokeDur = 60 * des.Second
)

// repStat is the host cost of one timed repetition.
type repStat struct {
	WallS    float64
	CPUS     float64
	Mallocs  uint64
	Bytes    uint64
	LiveHeap uint64
}

// measured is everything one workload's timed pass produced.
type measured struct {
	ConfigSHA string
	Setups    []float64
	Reps      []repStat
	Out       outcome
	Checks    []check
}

// configSHA hashes the JSON of the config value handed to the entry
// point, so an artifact states the inputs that produced it.
func configSHA(cfg any) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: config does not marshal: %v", err)) // plain data structs: a bug
	}
	return hashBytes(b)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// setUp runs the set-up rounds and returns their durations.
func setUp(w *spec, seed uint64) (setups []float64, sha string) {
	for i := 0; i < maxSetupRounds && (i < minSetupRounds || time.Since(processStart) < setupBudget); i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		sha = configSHA(w.config(seed))
		w.run(seed, des.Second)()
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, sha
}

// timeRep runs one timed repetition at the given size (0 = full): wall
// clock and allocation counters around the entry-point call alone, then
// the live heap after a forced collection with the result still
// referenced, then the summary.
func timeRep(w *spec, seed uint64, size des.Time) (repStat, outcome) {
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	summarise := w.run(seed, size)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	out := summarise()
	return repStat{
		WallS:    wall,
		CPUS:     cpu,
		Mallocs:  m1.Mallocs - m0.Mallocs,
		Bytes:    m1.TotalAlloc - m0.TotalAlloc,
		LiveHeap: m2.HeapAlloc,
	}, out
}

// timeReps repeats the workload at least n times and until budget
// seconds have been measured, and checks what every timed pass checks:
// the repetitions agree and the ledger conserves requests.
func timeReps(w *spec, seed uint64, size des.Time, n int, budget float64) ([]repStat, outcome, []check) {
	var reps []repStat
	var outs []outcome
	var spent float64
	for len(reps) < n || spent < budget {
		r, o := timeRep(w, seed, size)
		reps = append(reps, r)
		outs = append(outs, o)
		spent += r.WallS
	}
	return reps, outs[0], []check{
		identicalCheck("reps_identical", outs),
		ledgerCheck("requests_conserved", outs[0], -1),
	}
}

// fastest is the wall clock of the fastest repetition.
func fastest(reps []repStat) float64 {
	best := reps[0].WallS
	for _, r := range reps[1:] {
		best = math.Min(best, r.WallS)
	}
	return best
}

// measure is the tracing-off pass of one workload: set-up rounds, timed
// repetitions (defaultReps without -seconds, else until seconds are
// measured and at least minReps), and the correctness checks every
// invocation runs.
func measure(w *spec, seed uint64, seconds float64) measured {
	m := measured{}
	m.Setups, m.ConfigSHA = setUp(w, seed)
	n := minReps
	if seconds == 0 {
		n = defaultReps
	}
	m.Reps, m.Out, m.Checks = timeReps(w, seed, 0, n, seconds)
	if w.paperCell() {
		m.Checks = append(m.Checks, inertCheck(seed))
	}
	g, _ := goldenCheck(w.name, seed, m.Out.Hash)
	m.Checks = append(m.Checks, g)
	return m
}

// inertCheck runs the paper cell bare and armed at smoke size and
// verifies the observers leave the timeline untouched. A one-workload
// invocation cannot see the other paper workload's full-size hash, so
// this is its share of "paper_armed's hash equals paper_bare's"; the
// full set compares the full-size hashes as well.
func inertCheck(seed uint64) check {
	bare := runPaper(paperConfig(seed, false), smokeDur)()
	armed := runPaper(paperConfig(seed, true), smokeDur)()
	return hashCheck("observers_inert_60s", armed.Hash, bare.Hash)
}

// endToEndMetrics turns a timed pass into the end-to-end metric values:
// the median over repetitions of each memory metric, the fastest
// repetition for the wall clock, and the (identical) simulated goodput.
//
// Wall clock on a shared box only ever gets slower, in spells that last
// longer than a repetition, so the fastest repetition is the steadiest
// estimate of the program's own speed: over the same repetitions it
// spread 6 % between runs where their median spread 16 %.
func endToEndMetrics(m measured) map[string]value {
	n := float64(m.Out.resolved())
	med := func(f func(repStat) uint64) float64 {
		vs := make([]float64, len(m.Reps))
		for i, r := range m.Reps {
			vs[i] = float64(f(r))
		}
		return median(vs)
	}
	vals := map[string]float64{
		"sim_req_per_wall_s": n / fastest(m.Reps),
		"allocs_per_req":     med(func(r repStat) uint64 { return r.Mallocs }) / n,
		"bytes_per_req":      med(func(r repStat) uint64 { return r.Bytes }) / n,
		"live_heap_mb":       med(func(r repStat) uint64 { return r.LiveHeap }) / (1 << 20),
		"setup_s":            median(m.Setups),
		"sim_goodput_rps":    float64(m.Out.OK) / m.Out.SimSeconds,
	}
	return withUnits(vals, endToEnd)
}

// simMetrics are the two simulated statistics filed per-layer.
func simMetrics(o outcome) map[string]float64 {
	return map[string]float64{
		"sim_p99_ms":       o.P99 * 1000,
		"sim_failed_share": float64(o.Errors) / float64(o.resolved()),
	}
}

// withUnits pairs each defined metric with its measured value. A metric
// the pass did not produce is a bug in the pass, so it panics.
func withUnits(vals map[string]float64, defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("bench: metric " + d.Name + " was not measured")
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out
}

// perLayerMetrics is the -trace pass of one workload. It measures with
// tracing off first (minReps repetitions through the product's entry
// point), then for the paper workloads runs the other one for the observer
// overhead and the bench-owned traced assembly, then the probe table. The
// scale workloads have no assembly — RunScale does not return its striper
// — so their span metrics are 0 and des.events comes from ScaleResult.
// size shrinks every run for the smoke test (0 = full).
func perLayerMetrics(w *spec, seed uint64, size des.Time, outDir string, stamp map[string]any) (map[string]value, measured, error) {
	m := measured{ConfigSHA: configSHA(w.config(seed))}
	w.run(seed, des.Second)() // warm-up, as in the timed pass

	m.Reps, m.Out, m.Checks = timeReps(w, seed, size, minReps, 0)
	matches := -1.0 // the golden hashes are full-size ones
	if size == 0 {
		var g check
		g, matches = goldenCheck(w.name, seed, m.Out.Hash)
		m.Checks = append(m.Checks, g)
	}
	var cpu, slowest float64
	for _, r := range m.Reps {
		cpu += r.CPUS
		slowest = math.Max(slowest, r.WallS)
	}

	vals := simMetrics(m.Out)
	vals["process.peak_rss_mb"] = float64(experiment.ProcessPeakRSS()) / (1 << 20)
	vals["process.cpu_s"] = cpu / float64(len(m.Reps))
	vals["experiment.rep_wall_s_min"] = fastest(m.Reps)
	vals["experiment.rep_wall_s_max"] = slowest
	vals["experiment.trajectory_matches_golden"] = matches
	vals["scaling.actions"] = float64(m.Out.Actions)
	vals["scaling.estimates_count"] = float64(m.Out.Estimates)
	vals["cluster.vms_final"] = float64(m.Out.VMs)
	vals["admission.sheds"] = float64(m.Out.Sheds)
	vals["des.events"] = float64(m.Out.Events)
	// What only the paper cell's assembly can measure reads 0 elsewhere.
	vals["des.pending_depth_p50"] = 0
	vals["experiment.observer_overhead_pct"] = 0
	vals["bench.trace_overhead_pct"] = 0
	vals["bench.layers_unattributed_pct"] = 0

	rec := newRecorder()
	if w.paperCell() {
		tracePaperCell(w, seed, size, rec, &m, vals)
	}
	vals["des.events_per_req"] = vals["des.events"] / float64(m.Out.resolved())
	for k := spanKind(0); k < numSpanKinds; k++ {
		a := rec.agg[k]
		vals[spanNames[k]+".count"] = float64(a.Count)
		vals[spanNames[k]+".total_ms"] = float64(a.TotalNS) / 1e6
		vals[spanNames[k]+".self_ms"] = float64(a.SelfNS) / 1e6
	}
	for name, v := range runProbes() {
		vals[name] = v
	}
	if w.paperCell() {
		vals["bench.layers_unattributed_pct"] = unattributedPct(vals, float64(m.Out.resolved()))
		if err := writeTrace(rec, filepath.Join(outDir, "trace_"+w.name+".json"), stamp); err != nil {
			return nil, m, err
		}
	}
	return withUnits(vals, perLayerDefs()), m, nil
}

// tracePaperCell is the paper workloads' share of the -trace pass: the
// other paper workload, as many repetitions, for the armed-vs-bare
// overhead (fastest against fastest — single wall clocks on a shared box
// have come out negative), then the traced assembly into rec. It adds
// its checks to m and its metrics to vals.
func tracePaperCell(w *spec, seed uint64, size des.Time, rec *recorder, m *measured, vals map[string]float64) {
	other := findWorkload("paper_armed")
	if w.armed {
		other = findWorkload("paper_bare")
	}
	otherReps, otherOut, _ := timeReps(other, seed, size, minReps, 0)
	m.Checks = append(m.Checks, hashCheck("armed_equals_bare", otherOut.Hash, m.Out.Hash))
	wall := fastest(m.Reps)
	bareWall, armedWall := wall, fastest(otherReps)
	if w.armed {
		bareWall, armedWall = armedWall, bareWall
	}
	vals["experiment.observer_overhead_pct"] = 100 * (armedWall - bareWall) / bareWall

	cfg := w.paper(seed)
	if size > 0 {
		cfg.Duration = size
	}
	runtime.GC()
	t0 := time.Now()
	traced := runTracedPaperCell(cfg, rec)
	tracedWall := time.Since(t0).Seconds()
	m.Checks = append(m.Checks,
		hashCheck("assembly_equals_run", traced.Hash, m.Out.Hash),
		ledgerCheck("assembly_requests_conserved", traced.outcome, traced.InFlight),
	)
	if traced.resolved() != m.Out.resolved() || traced.P99 != m.Out.P99 {
		m.Checks = append(m.Checks, check{Name: "assembly_same_ledger",
			Note: fmt.Sprintf("assembly resolved %d p99 %g, run resolved %d p99 %g",
				traced.resolved(), traced.P99, m.Out.resolved(), m.Out.P99)})
	}
	vals["des.events"] = float64(traced.Events)
	vals["des.pending_depth_p50"] = traced.PendingP50
	vals["bench.trace_overhead_pct"] = 100 * (tracedWall - wall) / wall
}

// unattributedPct is the share of des.run self time the probe estimates
// do not explain. des.run's self time is everything the engine fires
// that no span brackets: the request path behind the synchronous submit
// (server, lb, cluster closures, 50 ms metrics), plus the scaling
// framework's tickers. The probes price that as the whole request path
// (cluster.request_ns per request) less the synchronous part the
// cluster.submit span already took, plus one metrics flush per server
// second and one SCT estimate per held estimate per 5 s decision.
func unattributedPct(v map[string]float64, requests float64) float64 {
	self := v["des.run.self_ms"]
	if self <= 0 {
		return 0
	}
	simSeconds := v["experiment.sampler.count"]
	explained := v["cluster.request_ns"]*requests/1e6 - v["cluster.submit.self_ms"]
	explained += v["metrics.flush_ns"] * simSeconds * v["cluster.vms_final"] / 1e6
	explained += v["sct.estimate_3600_ns"] * v["scaling.estimates_count"] * simSeconds / 5 / 1e6
	return 100 * (self - explained) / self
}

func writeTrace(rec *recorder, path string, stamp map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f, stamp); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
