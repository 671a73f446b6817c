package experiment

import (
	"bytes"
	"strings"
	"testing"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/rubbos"
	"conscale/internal/scaling"
	"conscale/internal/workload"
)

// shortRun trims a run config for test speed while keeping the dynamics.
func shortRun(mode scaling.Mode, trace string, seed uint64) RunConfig {
	cfg := DefaultRunConfig(mode, trace)
	cfg.Seed = seed
	cfg.Duration = ShortDuration
	cfg.MaxUsers = 5000
	return cfg
}

func TestRunProducesCompleteResult(t *testing.T) {
	res := Run(shortRun(scaling.EC2, workload.LargeVariations, 1))
	if len(res.Timeline) < 200 {
		t.Fatalf("timeline has %d points", len(res.Timeline))
	}
	if len(res.VMs) < 200 {
		t.Fatalf("VM series has %d points", len(res.VMs))
	}
	if res.Goodput == 0 {
		t.Fatal("no goodput")
	}
	if res.P95 <= 0 || res.P99 < res.P95 || res.P50 > res.P95 {
		t.Fatalf("percentile ordering wrong: %v/%v/%v", res.P50, res.P95, res.P99)
	}
	if res.Warehouse == nil || len(res.Warehouse.Servers()) < 3 {
		t.Fatal("warehouse missing servers")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(shortRun(scaling.EC2, workload.BigSpike, 7))
	b := Run(shortRun(scaling.EC2, workload.BigSpike, 7))
	if a.Goodput != b.Goodput || a.P99 != b.P99 {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v", a.Goodput, a.P99, b.Goodput, b.P99)
	}
	c := Run(shortRun(scaling.EC2, workload.BigSpike, 8))
	if a.Goodput == c.Goodput && a.P99 == c.P99 {
		t.Fatal("different seeds produced identical results")
	}
}

func TestEC2ScalesDuringBursts(t *testing.T) {
	res := Run(shortRun(scaling.EC2, workload.LargeVariations, 1))
	outs := res.ScaleOutTimes(cluster.App)
	if len(outs) == 0 {
		t.Fatal("EC2 never scaled out the app tier")
	}
	maxVMs := 0
	for _, v := range res.VMs {
		if v > maxVMs {
			maxVMs = v
		}
	}
	if maxVMs < 4 {
		t.Fatalf("max VMs = %d; the burst should force real scale-out", maxVMs)
	}
}

func TestConScaleBeatsEC2OnTails(t *testing.T) {
	// The headline claim (Table I): ConScale's tail latency is well below
	// EC2-AutoScaling's under bursty load.
	e := Run(shortRun(scaling.EC2, workload.LargeVariations, 1))
	c := Run(shortRun(scaling.ConScale, workload.LargeVariations, 1))
	if c.P95 >= e.P95 {
		t.Fatalf("ConScale p95 (%v) not below EC2 (%v)", c.P95, e.P95)
	}
	if c.Goodput < e.Goodput*95/100 {
		t.Fatalf("ConScale goodput %d fell below EC2 %d", c.Goodput, e.Goodput)
	}
}

func TestConScaleAdaptsSoftResourcesDuringRun(t *testing.T) {
	res := Run(shortRun(scaling.ConScale, workload.LargeVariations, 1))
	changed := false
	for _, h := range res.SoftHistory {
		if h[0] != 60 || h[1] != 40 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("ConScale never changed soft resources from 60/40")
	}
}

func TestFig3KneesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	r := Fig3(1)
	// Paper: 1-core peak at 10, 2-core at 20, 2-core enlarged at 15.
	if r.OneCore.Qlower < 8 || r.OneCore.Qlower > 15 {
		t.Fatalf("1-core knee = %d, want ~10", r.OneCore.Qlower)
	}
	if r.TwoCore.Qlower <= r.OneCore.Qlower {
		t.Fatalf("2-core knee (%d) should exceed 1-core (%d)", r.TwoCore.Qlower, r.OneCore.Qlower)
	}
	if r.TwoCoreEnlarged.Qlower >= r.TwoCore.Qlower {
		t.Fatalf("enlarged-dataset knee (%d) should be below original (%d)",
			r.TwoCoreEnlarged.Qlower, r.TwoCore.Qlower)
	}
	if r.TwoCore.MaxTP <= r.OneCore.MaxTP*1.5 {
		t.Fatalf("2-core TPmax (%v) should be near double 1-core (%v)", r.TwoCore.MaxTP, r.OneCore.MaxTP)
	}
}

func TestSweepThreeStages(t *testing.T) {
	cfg := DefaultSweepConfig(TargetDB)
	cfg.Measure = 5 * des.Second
	res := Sweep(cfg)
	if len(res.Points) != len(DefaultLevels()) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Ascending: first point well below the max.
	if res.Points[0].Throughput > 0.8*res.MaxTP {
		t.Fatalf("no ascending stage: TP(5)=%v max=%v", res.Points[0].Throughput, res.MaxTP)
	}
	// Descending: last point below the max (CPU-bound overhead).
	last := res.Points[len(res.Points)-1]
	if last.Throughput > 0.8*res.MaxTP {
		t.Fatalf("no descending stage: TP(100)=%v max=%v", last.Throughput, res.MaxTP)
	}
	// RT grows monotonically-ish with concurrency.
	if last.MeanRT < 4*res.Points[0].MeanRT {
		t.Fatalf("RT did not grow with concurrency: %v -> %v", res.Points[0].MeanRT, last.MeanRT)
	}
}

func TestSweepMeasuredConcurrencyTracksLevel(t *testing.T) {
	cfg := DefaultSweepConfig(TargetDB)
	cfg.Levels = []int{10, 40}
	cfg.Measure = 5 * des.Second
	res := Sweep(cfg)
	for _, p := range res.Points {
		if p.Concurrency < float64(p.Level)*0.7 || p.Concurrency > float64(p.Level)*1.1 {
			t.Fatalf("level %d measured concurrency %v", p.Level, p.Concurrency)
		}
	}
}

func TestFig5CapturesFineGrainedSeries(t *testing.T) {
	res := Fig5Window(Fig5Study(1).Run(nil)[0])
	if len(res.Samples) < 300 { // 20 s / 50 ms = 400 windows
		t.Fatalf("Fig5 has %d samples, want ~400", len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.Start < res.From || s.Start >= res.To {
			t.Fatalf("sample at %v outside [%v, %v)", s.Start, res.From, res.To)
		}
	}
}

func TestFig6ScatterAndEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-minute run")
	}
	res := Fig6Scatter(Fig6Study(1).Run(nil)[0])
	if !res.OK {
		t.Fatal("Fig6 estimate failed")
	}
	if len(res.TPPoints) < 1000 {
		t.Fatalf("scatter has %d points", len(res.TPPoints))
	}
	if res.Estimate.Qlower < 5 || res.Estimate.Qlower > 25 {
		t.Fatalf("MySQL Qlower = %d, want ~10", res.Estimate.Qlower)
	}
	if res.Estimate.Qupper < res.Estimate.Qlower {
		t.Fatal("range inverted")
	}
}

func TestFig9TracesShape(t *testing.T) {
	traces := Fig9()
	if len(traces) != 6 {
		t.Fatalf("Fig9 has %d traces", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Users) < 700 {
			t.Fatalf("%s has %d points", tr.Name, len(tr.Users))
		}
	}
}

func TestTrainDCMProducesSaneProfile(t *testing.T) {
	p := TrainDCM(3, cluster.DefaultConfig())
	if p.AppThreads < 8 || p.AppThreads > 60 {
		t.Fatalf("trained AppThreads = %d", p.AppThreads)
	}
	if p.DBTotal < 8 || p.DBTotal > 120 {
		t.Fatalf("trained DBTotal = %d", p.DBTotal)
	}
}

func TestFig11ConScaleBeatsStaleDCM(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs + training")
	}
	res := Fig11Study(1).Run(nil)
	dcm, conscale := res[0], res[1]
	if conscale.P95 >= dcm.P95 {
		t.Fatalf("ConScale p95 (%v) not below stale DCM (%v)",
			conscale.P95, dcm.P95)
	}
}

func TestDatasetChangeMidRun(t *testing.T) {
	cfg := shortRun(scaling.ConScale, workload.SlowlyVarying, 2)
	cfg.DatasetChangeAt = 100 * des.Second
	cfg.DatasetChangeTo = 2
	res := Run(cfg)
	if res.Goodput == 0 {
		t.Fatal("run with dataset change produced nothing")
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	res := Run(shortRun(scaling.EC2, workload.BigSpike, 4))
	var buf bytes.Buffer
	if err := WriteTimelineCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Timeline)+1 {
		t.Fatalf("CSV has %d lines for %d points", len(lines), len(res.Timeline))
	}
	if !strings.HasPrefix(lines[0], "time_s,users,") {
		t.Fatalf("header wrong: %s", lines[0])
	}
	if got := strings.Count(lines[1], ","); got != 9 {
		t.Fatalf("row has %d commas, want 9", got)
	}
}

func TestWriteSweepCSV(t *testing.T) {
	cfg := DefaultSweepConfig(TargetApp)
	cfg.Levels = []int{5, 10}
	cfg.Measure = 2 * des.Second
	res := Sweep(cfg)
	var buf bytes.Buffer
	if err := writeSweepCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
}

func TestWriteTraceCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTraceCSV(&buf, Fig9()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 700 {
		t.Fatalf("trace CSV has %d lines", len(lines))
	}
	if strings.Count(lines[0], ",") != 6 {
		t.Fatalf("header: %s", lines[0])
	}
}

func TestRenderersDoNotPanic(t *testing.T) {
	res := Run(shortRun(scaling.EC2, workload.DualPhase, 5))
	var buf bytes.Buffer
	RenderRunSummary(&buf, res)
	renderRuns(&buf, []*RunResult{res, res})
	renderTable1(&buf, []Table1Row{{Trace: "x", EC2P95: 1, EC2P99: 2, ConScaleP95: 0.5, ConScaleP99: 1}})
	renderAblation(&buf, "t", []ablationRow{{Label: "a", P95: 1, P99: 2}})
	if buf.Len() == 0 {
		t.Fatal("renderers produced nothing")
	}
}

func TestRTOverThresholdAndMaxRT(t *testing.T) {
	res := Run(shortRun(scaling.EC2, workload.LargeVariations, 1))
	if res.MaxRT() <= 0 {
		t.Fatal("MaxRT not positive")
	}
	frac := res.RTOverThreshold(0.0)
	if frac <= 0 || frac > 1 {
		t.Fatalf("RTOverThreshold(0) = %v", frac)
	}
	if res.RTOverThreshold(1e9) != 0 {
		t.Fatal("impossible threshold exceeded")
	}
}

func TestSweepReadWriteMixUsesDisk(t *testing.T) {
	cfg := DefaultSweepConfig(TargetDB)
	cfg.Mix = rubbos.ReadWrite
	cfg.Levels = []int{5, 20}
	cfg.Measure = 5 * des.Second
	res := Sweep(cfg)
	// Disk-bound: TP(20) should NOT be 4x TP(5) — the single disk channel
	// flattens the curve early (Fig. 7f).
	if res.Points[1].Throughput > 2*res.Points[0].Throughput {
		t.Fatalf("RW mix not disk-bound: %v -> %v",
			res.Points[0].Throughput, res.Points[1].Throughput)
	}
}

func TestAnalyticDCMProfileMatchesMeasuredKnees(t *testing.T) {
	// Cross-validation: the MVA-derived profile must agree with the
	// discrete-event sweep's measured knees (Fig. 3a: ~10 for a 1-core
	// Tomcat; Fig. 7a: ~10 for a 1-core browse-only MySQL).
	p := AnalyticDCMProfile(cluster.DefaultConfig())
	if p.AppThreads < 7 || p.AppThreads > 14 {
		t.Fatalf("analytic AppThreads = %d, want ~10", p.AppThreads)
	}
	if p.DBTotal < 7 || p.DBTotal > 14 {
		t.Fatalf("analytic DBTotal = %d, want ~10", p.DBTotal)
	}
}

func TestAnalyticDCMProfileTracksMixChange(t *testing.T) {
	browse := cluster.DefaultConfig()
	rw := cluster.DefaultConfig()
	rw.Mix = rubbos.ReadWrite
	pb := AnalyticDCMProfile(browse)
	pr := AnalyticDCMProfile(rw)
	if pr.DBTotal >= pb.DBTotal {
		t.Fatalf("I/O-intensive DB budget (%d) should be below browse-only (%d)",
			pr.DBTotal, pb.DBTotal)
	}
}

func TestReportMarkdownRenders(t *testing.T) {
	// Rendering only: use canned results so the test stays fast.
	rep := &Report{
		Seed: 1,
		Table1: []Table1Row{
			{Trace: "big-spike", EC2P95: 1.4, EC2P99: 2.0, ConScaleP95: 0.06, ConScaleP99: 0.3},
			{Trace: "dual-phase", EC2P95: 2.2, EC2P99: 4.0, ConScaleP95: 1.1, ConScaleP99: 2.5},
		},
		Fig3: Fig3Result{
			OneCore:         SweepResult{Qlower: 10},
			TwoCore:         SweepResult{Qlower: 20},
			TwoCoreEnlarged: SweepResult{Qlower: 15},
		},
		Fig11: []*RunResult{
			{P95: 2.7, P99: 2.9, Goodput: 800000},
			{P95: 0.17, P99: 0.59, Goodput: 950000},
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# ConScale reproduction report",
		"| Tomcat 1 vCPU | 10 | 10 |",
		"**REPRODUCED**",
		"big-spike",
		"ConScale wins",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportVerdictPartial(t *testing.T) {
	rep := &Report{
		Table1: []Table1Row{
			{Trace: "a", EC2P95: 1, EC2P99: 1, ConScaleP95: 2, ConScaleP99: 2}, // loss
		},
		Fig3: Fig3Result{
			OneCore:         SweepResult{Qlower: 10},
			TwoCore:         SweepResult{Qlower: 10}, // no doubling
			TwoCoreEnlarged: SweepResult{Qlower: 10},
		},
		Fig11: []*RunResult{
			{P95: 0.1},
			{P95: 0.2}, // loss
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "PARTIAL (0/1 traces)") {
		t.Fatalf("missing partial verdict:\n%s", out)
	}
	if !strings.Contains(out, "NOT REPRODUCED") {
		t.Fatalf("missing failure verdict:\n%s", out)
	}
}
