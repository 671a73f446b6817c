package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// fakeClock returns a recorder whose clock the test sets by hand.
func fakeClock() (*recorder, *int64) {
	now := new(int64)
	return &recorder{clock: func() int64 { return *now }}, now
}

func TestSpanSelfTimeNested(t *testing.T) {
	rec, now := fakeClock()
	rec.open(spanDesRun, 1) // 0..100
	*now = 10
	rec.open(spanClusterSubmit, 64) // 10..60
	*now = 20
	rec.open(spanWorkloadComplete, 64) // 20..30, a grandchild
	*now = 30
	rec.close()
	*now = 60
	rec.close()
	*now = 70
	rec.open(spanTwinTick, 0) // 70..90, a second child
	*now = 90
	rec.close()
	*now = 100
	rec.close()

	want := map[spanKind]spanAgg{
		spanDesRun:           {Count: 1, TotalNS: 100, SelfNS: 30},
		spanClusterSubmit:    {Count: 1, TotalNS: 50, SelfNS: 40},
		spanWorkloadComplete: {Count: 1, TotalNS: 10, SelfNS: 10},
		spanTwinTick:         {Count: 1, TotalNS: 20, SelfNS: 20},
	}
	for k, w := range want {
		if got := rec.agg[k]; got != w {
			t.Errorf("%s: got %+v, want %+v", spanNames[k], got, w)
		}
	}
	if len(rec.stack) != 0 {
		t.Errorf("stack not empty: %d frames", len(rec.stack))
	}
}

func TestSpanSelfTimeOverlappingChildren(t *testing.T) {
	rec, now := fakeClock()
	rec.open(spanDesRun, 1) // 0..100
	// Overlapping children cover 10..70 once, not 40+40; a child inside
	// the covered part adds nothing; a disjoint one adds its length.
	rec.add(spanClusterSubmit, 1, 10, 50)
	rec.add(spanClusterSubmit, 2, 30, 70)
	rec.add(spanClusterSubmit, 3, 40, 60)
	rec.add(spanClusterSubmit, 4, 80, 90)
	*now = 100
	rec.close()
	if got := rec.agg[spanDesRun].SelfNS; got != 100-60-10 {
		t.Errorf("parent self = %d, want 30", got)
	}
	if got := rec.agg[spanClusterSubmit]; got != (spanAgg{Count: 4, TotalNS: 40 + 40 + 20 + 10, SelfNS: 110}) {
		t.Errorf("children aggregate = %+v", got)
	}
}

func TestSpanSampleAndChromeJSON(t *testing.T) {
	rec, now := fakeClock()
	rec.open(spanDesRun, 1)
	for id := uint64(1); id <= 3*keepEvery; id++ {
		*now += 10
		rec.open(spanClusterSubmit, id)
		*now += 5
		rec.close()
	}
	*now += 10
	rec.close()
	if got := rec.agg[spanClusterSubmit].Count; got != 3*keepEvery {
		t.Fatalf("aggregate count = %d: every span must be aggregated", got)
	}
	if len(rec.kept) != 3+1 {
		t.Fatalf("kept %d records, want the 3 sampled requests and the des.run span", len(rec.kept))
	}
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf, map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TS   float64
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	first := doc.TraceEvents[0]
	if first.Name != "cluster.submit" || first.Ph != "X" || first.Dur != 0.005 ||
		first.Args["id"] != float64(keepEvery) || first.Args["parent"] != "des.run" {
		t.Errorf("first event = %+v", first)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{9, 1}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		if !reflect.DeepEqual(in, c.in) {
			t.Errorf("median reordered its input: %v", c.in)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	check := func(d metricDef, endToEnd bool) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
		if endToEnd && !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if !endToEnd && d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("%s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d, true)
	}
	layer := perLayerDefs()
	for _, d := range layer {
		check(d, false)
	}
	if len(endToEnd) > 16 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(layer))
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package
// in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bm.Command, bm.Paths)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bm.RunSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table has %q: %q", i, bm.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			bound := 0.0
			if g.Bound != nil {
				bound = *g.Bound
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v (bound %v), the table has %+v", kind, i, g, bound, d)
			}
		}
	}
	compare("end_to_end", bm.EndToEnd, endToEnd)
	compare("per_layer", bm.PerLayer, perLayerDefs())
}

func TestLedgerRejectsDoctoredResult(t *testing.T) {
	honest := outcome{Issued: 1000, OK: 880, Errors: 110, Sheds: 100}
	if err := checkLedger(honest, 10); err != nil {
		t.Fatalf("honest ledger rejected: %v", err)
	}
	if err := checkLedger(honest, -1); err != nil {
		t.Fatalf("honest ledger without an in-flight count rejected: %v", err)
	}
	if err := checkLedger(outcome{OK: 880, Errors: 110, Sheds: 100}, -1); err != nil {
		t.Fatalf("completions-only ledger rejected: %v", err)
	}
	doctored := map[string]struct {
		o        outcome
		inFlight int64
	}{
		"a completion invented": {outcome{Issued: 1000, OK: 881, Errors: 110, Sheds: 100}, 10},
		"a failure dropped":     {outcome{Issued: 1000, OK: 880, Errors: 109, Sheds: 100}, 10},
		"more done than issued": {outcome{Issued: 900, OK: 880, Errors: 110, Sheds: 100}, -1},
		"sheds beyond failures": {outcome{Issued: 1000, OK: 880, Errors: 110, Sheds: 111}, 10},
		"negative count":        {outcome{Issued: 1000, OK: 1000, Errors: -10}, 10},
		"nothing resolved":      {outcome{Issued: 1000}, 1000},
	}
	for name, d := range doctored {
		if err := checkLedger(d.o, d.inFlight); err == nil {
			t.Errorf("%s: doctored ledger %+v accepted", name, d.o)
		}
	}
}

func TestIdenticalCheck(t *testing.T) {
	a := outcome{OK: 10, P99: 0.5, Hash: "x"}
	b := a
	b.P99 = 0.6
	if c := identicalCheck("reps", []outcome{a, a, a}); !c.OK {
		t.Errorf("identical runs rejected: %+v", c)
	}
	if c := identicalCheck("reps", []outcome{a, a, b}); c.OK {
		t.Error("a drifting repetition was accepted")
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g := loadGolden()
	for _, w := range workloads {
		if len(g.Hashes[w.name]) != 64 {
			t.Errorf("golden.json has no sha256 for %s", w.name)
		}
	}
	if g.Hashes["paper_armed"] != g.Hashes["paper_bare"] {
		t.Error("golden paper_armed and paper_bare differ: observers must not move the timeline")
	}
	if c, v := goldenCheck("paper_bare", g.Seed, "0000"); c.OK || !c.Warn || v != 0 {
		t.Errorf("a golden mismatch must warn, not fail: %+v %v", c, v)
	}
	if c, v := goldenCheck("paper_bare", g.Seed+1, "0000"); !c.OK || v != -1 {
		t.Errorf("a seed without golden hashes must pass: %+v %v", c, v)
	}
}

func TestBareTrace(t *testing.T) {
	cases := []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"--workload", "x", "--trace", "0"}, []string{"--workload", "x", "--trace", "0"}},
		{[]string{"--trace", "1", "--seed", "3"}, []string{"--trace", "1", "--seed", "3"}},
	}
	for _, c := range cases {
		if got := bareTrace(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("bareTrace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEndToEndMetricsComplete(t *testing.T) {
	m := measured{
		Setups: []float64{0.3, 0.1, 0.2},
		Reps: []repStat{
			{WallS: 2, Mallocs: 600, Bytes: 30000, LiveHeap: 3 << 20},
			{WallS: 1, Mallocs: 600, Bytes: 30000, LiveHeap: 1 << 20},
			{WallS: 4, Mallocs: 600, Bytes: 30000, LiveHeap: 2 << 20},
		},
		Out: outcome{OK: 9, Errors: 1, SimSeconds: 3},
	}
	got := endToEndMetrics(m)
	want := map[string]float64{
		"sim_req_per_wall_s": 10, "allocs_per_req": 60, "bytes_per_req": 3000,
		"live_heap_mb": 2, "setup_s": 0.2, "sim_goodput_rps": 3,
	}
	if len(got) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(got), len(endToEnd))
	}
	for name, v := range want {
		if got[name].Value != v {
			t.Errorf("%s = %v, want %v", name, got[name].Value, v)
		}
	}
}

// TestTracePassAtSmokeSize runs the whole -trace pass on the armed paper
// cell at 60 simulated seconds: the bench-owned assembly must reproduce
// experiment.Run's timeline, conserve requests against the cluster's own
// in-flight count, and emit every per-layer metric.
func TestTracePassAtSmokeSize(t *testing.T) {
	dir := t.TempDir()
	w := findWorkload("paper_armed")
	metrics, m, err := perLayerMetrics(w, 1, smokeDur, dir, map[string]any{"workload": w.name})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Note)
		}
	}
	if len(metrics) != len(perLayerDefs()) {
		t.Errorf("%d per-layer metrics, want %d", len(metrics), len(perLayerDefs()))
	}
	if c := finiteCheck(metrics); !c.OK {
		t.Error(c.Note)
	}
	requests := float64(m.Out.resolved())
	if got := metrics["cluster.submit.count"].Value; got < requests {
		t.Errorf("%v cluster.submit spans for %v resolved requests", got, requests)
	}
	if got := metrics["telemetry.observe.count"].Value; got != requests {
		t.Errorf("telemetry observed %v of %v requests", got, requests)
	}
	if self, total := metrics["des.run.self_ms"].Value, metrics["des.run.total_ms"].Value; !(self > 0 && self < total) {
		t.Errorf("des.run self %v ms of total %v ms", self, total)
	}
	if _, err := os.Stat(dir + "/trace_paper_armed.json"); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}

// TestAssemblyReproducesBareRun is the mirror check on the bare cell:
// same timeline as experiment.Run, and no observer span recorded.
func TestAssemblyReproducesBareRun(t *testing.T) {
	cfg := paperConfig(1, false)
	cfg.Duration = smokeDur
	rec := newRecorder()
	traced := runTracedPaperCell(cfg, rec)
	run := runPaper(cfg, 0)()
	if traced.Hash != run.Hash {
		t.Errorf("assembly timeline %s, experiment.Run %s", traced.Hash, run.Hash)
	}
	if traced.resolved() != run.resolved() || traced.P99 != run.P99 {
		t.Errorf("assembly resolved %d p99 %v, run resolved %d p99 %v", traced.resolved(), traced.P99, run.resolved(), run.P99)
	}
	if err := checkLedger(traced.outcome, traced.InFlight); err != nil {
		t.Error(err)
	}
	for _, k := range []spanKind{spanTelemetryObserve, spanForensicsObserve, spanForensicsTick, spanTwinObserve, spanTwinTick, spanTraceOnEnd} {
		if n := rec.agg[k].Count; n != 0 {
			t.Errorf("%d %s spans with no observer armed", n, spanNames[k])
		}
	}
	if n := rec.agg[spanSampler].Count; n != int64(smokeDur) {
		t.Errorf("%d sampler spans over %v simulated seconds", n, smokeDur)
	}
}
