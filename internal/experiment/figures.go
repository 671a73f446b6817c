package experiment

import (
	"fmt"
	"io"
	"math"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/lb"
	"conscale/internal/metrics"
	"conscale/internal/rubbos"
	"conscale/internal/scaling"
	"conscale/internal/sct"
	"conscale/internal/workload"
)

// Fig1 reproduces Figure 1: the large response-time fluctuations of a
// 3-tier system under hardware-only EC2-AutoScaling on a bursty trace,
// with the VM-count overlay.
func Fig1(seed uint64) *RunResult {
	cfg := DefaultRunConfig(scaling.EC2, workload.LargeVariations)
	cfg.Seed = seed
	return Run(cfg)
}

// Fig1Artifacts is Fig. 1's timeline, fig1_ec2_timeline.csv.
func Fig1Artifacts(res *RunResult) []Artifact {
	return []Artifact{timelineArtifact("fig1_ec2_timeline.csv", res)}
}

// Fig3Result holds the three Tomcat profiling sweeps of Figure 3.
type Fig3Result struct {
	// OneCore: Tomcat with 1 vCPU, original dataset (peak at ~10).
	OneCore SweepResult
	// TwoCore: Tomcat with 2 vCPUs, original dataset (peak at ~20).
	TwoCore SweepResult
	// TwoCoreEnlarged: 2 vCPUs with the dataset doubled (peak at ~15).
	TwoCoreEnlarged SweepResult
}

// Fig3 reproduces Figure 3: throughput and response time of Tomcat at
// controlled concurrency under three pre-profiling conditions.
func Fig3(seed uint64) Fig3Result {
	base := DefaultSweepConfig(TargetApp)
	base.Seed = seed

	one := base
	one.Cores = 1

	two := base
	two.Cores = 2

	twoBig := base
	twoBig.Cores = 2
	twoBig.DatasetScale = 2

	sweeps := SweepMany([]SweepConfig{one, two, twoBig})
	return Fig3Result{
		OneCore:         sweeps[0],
		TwoCore:         sweeps[1],
		TwoCoreEnlarged: sweeps[2],
	}
}

// Fig3Artifacts is one sweep CSV per Fig. 3 panel.
func Fig3Artifacts(res Fig3Result) []Artifact {
	return []Artifact{
		sweepArtifact("fig3a_tomcat_1core.csv", res.OneCore),
		sweepArtifact("fig3b_tomcat_2core.csv", res.TwoCore),
		sweepArtifact("fig3c_tomcat_2core_enlarged.csv", res.TwoCoreEnlarged),
	}
}

// Fig5Result is the fine-grained MySQL view of Figure 5: the 50 ms
// concurrency, throughput, and response-time series over the 20-second
// window after the system scales from 1/1/1 to 1/2/1.
type Fig5Result struct {
	From, To des.Time
	Samples  []metrics.WindowSample
}

// Fig5 reproduces Figure 5 by running the EC2 scenario of Fig. 1 and
// extracting mysql1's window samples for the 85–105 s period.
func Fig5(seed uint64) Fig5Result {
	cfg := DefaultRunConfig(scaling.EC2, workload.LargeVariations)
	cfg.Seed = seed
	cfg.Duration = 150 * des.Second
	res := Run(cfg)
	const from, to = 85 * des.Second, 105 * des.Second
	var out []metrics.WindowSample
	for _, s := range res.Warehouse.FineSince("mysql1", from) {
		if s.Start < to {
			out = append(out, s)
		}
	}
	return Fig5Result{From: from, To: to, Samples: out}
}

// Fig5Artifacts is Fig. 5's 50 ms window samples,
// fig5_mysql_finegrained.csv.
func Fig5Artifacts(res Fig5Result) []Artifact {
	return []Artifact{{"fig5_mysql_finegrained.csv", sticky(func(w io.Writer) {
		fmt.Fprintln(w, "time_s,concurrency,throughput_rps,rt_ms,completions,errors")
		for _, s := range res.Samples {
			rt := s.RT * 1000
			if math.IsNaN(rt) {
				rt = 0
			}
			fmt.Fprintf(w, "%.3f,%.2f,%.1f,%.2f,%d,%d\n",
				float64(s.Start), s.Concurrency, s.Throughput, rt, s.Completions, s.Errors)
		}
	})}}
}

// Fig6Result holds the scatter-correlation analysis of Figure 6.
type Fig6Result struct {
	TPPoints []sct.ScatterPoint // throughput vs concurrency
	RTPoints []sct.ScatterPoint // response time vs concurrency
	Curve    sct.BinnedCurve    // the trend line
	Estimate sct.Estimate       // the rational range / optimal setting
	OK       bool
}

// Fig6 reproduces Figure 6: the correlation between MySQL's 50 ms
// concurrency, throughput, and response time over a 12-minute bursty run,
// and the rational concurrency range the SCT model derives from it.
func Fig6(seed uint64) Fig6Result {
	cfg := DefaultRunConfig(scaling.EC2, workload.LargeVariations)
	cfg.Seed = seed
	res := Run(cfg)
	samples := res.Warehouse.FineSince("mysql1", 0)
	tp, rt := sct.Scatter(samples)
	est, ok := sct.New(sct.Config{}).Estimate(samples)
	return Fig6Result{
		TPPoints: tp,
		RTPoints: rt,
		Curve:    sct.Curve(samples),
		Estimate: est,
		OK:       ok,
	}
}

// Fig6Artifacts is Fig. 6's scatter, fig6_mysql_scatter.csv: one row per
// throughput point, with the response time at the same index (0 past
// the end of the RT points).
func Fig6Artifacts(res Fig6Result) []Artifact {
	return []Artifact{{"fig6_mysql_scatter.csv", sticky(func(w io.Writer) {
		fmt.Fprintln(w, "concurrency,throughput_rps,rt_ms")
		for i, tp := range res.TPPoints {
			rt := 0.0
			if i < len(res.RTPoints) {
				rt = res.RTPoints[i].Value * 1000
			}
			fmt.Fprintf(w, "%.2f,%.1f,%.2f\n", tp.Concurrency, tp.Value, rt)
		}
	})}}
}

// Fig7Panel is one of the six scatter-comparison panels of Figure 7.
type Fig7Panel struct {
	Label string
	Sweep SweepResult
}

// Fig7 reproduces Figure 7: how vertical scaling (a/d), dataset size (b/e),
// and workload type (c/f) shift the optimal concurrency setting.
func Fig7(seed uint64) []Fig7Panel {
	db := DefaultSweepConfig(TargetDB)
	db.Seed = seed

	db1 := db
	db1.Cores = 1

	db2 := db
	db2.Cores = 2

	app := DefaultSweepConfig(TargetApp)
	app.Seed = seed
	app.Cores = 2

	appBig := app
	appBig.DatasetScale = 2

	dbCPU := db
	dbCPU.Cores = 1
	dbCPU.Levels = []int{5, 10, 15, 20, 25, 30, 35, 40}

	dbIO := dbCPU
	dbIO.Mix = rubbos.ReadWrite

	labels := []string{
		"a: MySQL 1-core (browse-only)",
		"d: MySQL 2-core (browse-only)",
		"b: Tomcat original dataset",
		"e: Tomcat enlarged dataset",
		"c: MySQL CPU-intensive workload",
		"f: MySQL I/O-intensive workload",
	}
	sweeps := SweepMany([]SweepConfig{db1, db2, app, appBig, dbCPU, dbIO})
	panels := make([]Fig7Panel, len(labels))
	for i := range labels {
		panels[i] = Fig7Panel{Label: labels[i], Sweep: sweeps[i]}
	}
	return panels
}

// Fig7Artifacts is one sweep CSV per Fig. 7 panel, named by its letter
// and label.
func Fig7Artifacts(panels []Fig7Panel) []Artifact {
	arts := make([]Artifact, len(panels))
	for i, p := range panels {
		arts[i] = sweepArtifact(fmt.Sprintf("fig7%c_%s.csv", 'a'+i, sanitize(p.Label)), p.Sweep)
	}
	return arts
}

// TraceSeries is one Fig. 9 panel: a named user curve sampled at 1 s.
type TraceSeries struct {
	Name  string
	Users []int
}

// Fig9 reproduces Figure 9: the six realistic bursty workload traces.
func Fig9() []TraceSeries {
	out := make([]TraceSeries, 0, 6)
	for _, tr := range workload.StandardTraces() {
		out = append(out, TraceSeries{Name: tr.Name, Users: tr.Series(des.Second)})
	}
	return out
}

// Fig9Artifacts is the trace curves side by side, fig9_traces.csv.
func Fig9Artifacts(traces []TraceSeries) []Artifact {
	return []Artifact{{"fig9_traces.csv", func(w io.Writer) error { return WriteTraceCSV(w, traces) }}}
}

// CompareResult pairs two runs of the same scenario under different
// frameworks (Fig. 10: EC2 vs ConScale; Fig. 11: DCM vs ConScale).
type CompareResult struct {
	Baseline *RunResult
	ConScale *RunResult
}

// Fig10 reproduces Figure 10: EC2-AutoScaling vs ConScale under the Large
// Variations trace, starting from 1/1/1 with soft resources 1000-60-40.
func Fig10(seed uint64) CompareResult {
	e := DefaultRunConfig(scaling.EC2, workload.LargeVariations)
	e.Seed = seed
	c := DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
	c.Seed = seed
	res := RunMany([]RunConfig{e, c})
	return CompareResult{Baseline: res[0], ConScale: res[1]}
}

// Fig10Artifacts is both Fig. 10 timelines, fig10_ec2_timeline.csv and
// fig10_conscale_timeline.csv.
func Fig10Artifacts(res CompareResult) []Artifact { return res.artifacts("fig10", "ec2") }

// artifacts names a pair's timelines <fig>_<baseline>_timeline.csv and
// <fig>_conscale_timeline.csv.
func (c CompareResult) artifacts(fig, baseline string) []Artifact {
	return []Artifact{
		timelineArtifact(fig+"_"+baseline+"_timeline.csv", c.Baseline),
		timelineArtifact(fig+"_conscale_timeline.csv", c.ConScale),
	}
}

// Fig11 reproduces Figure 11: DCM (profile trained on the original
// dataset) vs ConScale after the dataset is reduced — the system-state
// change that makes offline-trained soft-resource settings stale.
func Fig11(seed uint64) CompareResult {
	profile := TrainDCM(seed, cluster.DefaultConfig())

	ccfg := cluster.DefaultConfig()
	ccfg.DatasetScale = 0.5 // reduced dataset at production time

	d := DefaultRunConfig(scaling.DCM, workload.LargeVariations)
	d.Seed = seed
	d.Cluster = &ccfg
	d.Framework = profiledConfig(scaling.DCM, profile)

	c := DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
	c.Seed = seed
	c.Cluster = &ccfg

	res := RunMany([]RunConfig{d, c})
	return CompareResult{Baseline: res[0], ConScale: res[1]}
}

// Fig11Artifacts is both Fig. 11 timelines, fig11_dcm_timeline.csv and
// fig11_conscale_timeline.csv.
func Fig11Artifacts(res CompareResult) []Artifact { return res.artifacts("fig11", "dcm") }

// Table1Row is one row of Table I: tail latencies for one trace.
type Table1Row struct {
	Trace                    string
	EC2P95, EC2P99           float64 // seconds
	ConScaleP95, ConScaleP99 float64
}

// Table1 reproduces Table I: 95th and 99th percentile response times of
// EC2-AutoScaling vs ConScale under all six bursty traces.
func Table1(seed uint64) []Table1Row {
	return table1(seed, DefaultRunConfig)
}

// Table1Artifacts is Table I in milliseconds, table1_tail_latency.csv.
func Table1Artifacts(rows []Table1Row) []Artifact {
	return []Artifact{{"table1_tail_latency.csv", sticky(func(w io.Writer) {
		fmt.Fprintln(w, "trace,ec2_p95_ms,ec2_p99_ms,conscale_p95_ms,conscale_p99_ms")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%.0f,%.0f,%.0f,%.0f\n",
				r.Trace, r.EC2P95*1000, r.EC2P99*1000, r.ConScaleP95*1000, r.ConScaleP99*1000)
		}
	})}}
}

// table1 runs the 6×2 (trace, framework) matrix through the worker pool;
// the config builder is injected so tests can shrink the runs while
// exercising the same merge path.
func table1(seed uint64, mkConfig func(scaling.Mode, string) RunConfig) []Table1Row {
	traces := workload.Names()
	cfgs := make([]RunConfig, 0, len(traces)*2)
	for _, tr := range traces {
		e := mkConfig(scaling.EC2, tr)
		e.Seed = seed
		c := mkConfig(scaling.ConScale, tr)
		c.Seed = seed
		cfgs = append(cfgs, e, c)
	}
	results := RunMany(cfgs)
	rows := make([]Table1Row, 0, len(traces))
	for i, tr := range traces {
		er, cr := results[2*i], results[2*i+1]
		rows = append(rows, Table1Row{
			Trace:       tr,
			EC2P95:      er.P95,
			EC2P99:      er.P99,
			ConScaleP95: cr.P95,
			ConScaleP99: cr.P99,
		})
	}
	return rows
}

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Label  string
	P95    float64 // seconds
	P99    float64
	Detail string
}

// Ablation is one sensitivity study beyond the paper. Every arm runs the
// large-variations trace under the study's policy with one design choice
// changed; the study reports each arm's tails and a detail column.
type Ablation struct {
	// Title heads the study's table.
	Title string

	// file names the study's CSV artifact.
	file string
	mode scaling.Mode
	// base sets what every arm shares from the seed (nil: nothing).
	base func(seed uint64, cfg *RunConfig)
	arms []ablationArm
	// detail fills a finished arm's detail column (nil: empty).
	detail func(res *RunResult) string
}

// ablationArm is one configuration of a study: its row label and its
// change to the study's base run.
type ablationArm struct {
	label string
	set   func(cfg *RunConfig)
}

// clusterArm changes a copy of the run's cluster config.
func clusterArm(label string, set func(c *cluster.Config)) ablationArm {
	return ablationArm{label, func(cfg *RunConfig) {
		c := cluster.DefaultConfig()
		if cfg.Cluster != nil {
			c = *cfg.Cluster
		}
		set(&c)
		cfg.Cluster = &c
	}}
}

// frameworkArm changes a copy of the run's control-plane config.
func frameworkArm(label string, set func(f *scaling.Config)) ablationArm {
	return ablationArm{label, func(cfg *RunConfig) {
		f := scaling.DefaultConfig(cfg.Mode)
		if cfg.Framework != nil {
			f = *cfg.Framework
		}
		set(&f)
		cfg.Framework = &f
	}}
}

// Ablations returns studies A1–A7 in order.
func Ablations() []Ablation {
	window := func(w des.Time) ablationArm {
		return clusterArm(fmt.Sprintf("window=%dms", int(w/des.Millisecond)),
			func(c *cluster.Config) { c.Window = w })
	}
	balancer := func(p lb.Policy) ablationArm {
		return clusterArm("lb="+p.String(), func(c *cluster.Config) { c.LBPolicy = p })
	}
	cache := func(label string, servers int) ablationArm {
		return clusterArm(label, func(c *cluster.Config) {
			c.CacheServers = servers
			c.CacheHitRatio = 0.8
		})
	}
	unchanged := func(*scaling.Config) {}
	return []Ablation{{
		// A1: too-coarse windows smear the concurrency signal, too-fine
		// ones starve bins; the detail is the estimate MySQL gets.
		Title: "A1: SCT measurement window", file: "ablation_a1_window.csv",
		mode: scaling.ConScale,
		arms: []ablationArm{window(10 * des.Millisecond), window(50 * des.Millisecond),
			window(250 * des.Millisecond), window(des.Second)},
		detail: func(res *RunResult) string {
			if est, ok := res.FinalEstimates["mysql1"]; ok {
				return fmt.Sprintf("mysql1 Qlower=%d Qupper=%d", est.Qlower, est.Qupper)
			}
			return "no estimate"
		},
	}, {
		// A2: Qlower (the paper's pick) against Qupper as the setting;
		// both sustain maximum throughput, the upper bound at higher
		// latency.
		Title: "A2: Qlower vs Qupper setting", file: "ablation_a2_qupper.csv",
		mode: scaling.ConScale,
		arms: []ablationArm{
			frameworkArm("setting=Qlower", unchanged),
			frameworkArm("setting=Qupper", func(f *scaling.Config) { f.UseQupper = true }),
		},
	}, {
		// A3: leastconn (the paper's deployment) against roundrobin.
		Title: "A3: load-balancer policy", file: "ablation_a3_lb.csv",
		mode: scaling.ConScale,
		arms: []ablationArm{balancer(lb.LeastConn), balancer(lb.RoundRobin)},
	}, {
		// A4: the "quick start but slow turn off" policy against
		// aggressive scale-in, and the oscillation that follows.
		Title: "A4: scale-in cooldown", file: "ablation_a4_cooldown.csv",
		mode: scaling.EC2,
		arms: []ablationArm{
			frameworkArm("slow-turn-off", unchanged),
			frameworkArm("fast-turn-off", func(f *scaling.Config) {
				f.SustainIn = 5
				f.InCooldown = 10 * des.Second
			}),
		},
		detail: func(res *RunResult) string {
			ins := 0
			for _, e := range res.Events {
				if e.Kind == scaling.ScaleIn {
					ins++
				}
			}
			return fmt.Sprintf("%d scale-in events", ins)
		},
	}, {
		// A5: horizontal DB scaling (new VMs, 15 s preparation each)
		// against vertical (vCPUs added to live VMs, no preparation) —
		// Section III-C.1's scale-up, whose optimal-concurrency doubling
		// the SCT model must track online.
		Title: "A5: horizontal vs vertical DB scaling", file: "ablation_a5_vertical.csv",
		mode: scaling.ConScale,
		arms: []ablationArm{
			frameworkArm("db=horizontal", unchanged),
			frameworkArm("db=vertical(4max)", func(f *scaling.Config) { f.VerticalDBMaxCores = 4 }),
		},
		detail: func(res *RunResult) string {
			return fmt.Sprintf("%d db scale events", len(res.ScaleOutTimes(cluster.DB)))
		},
	}, {
		// A6: the optional Memcached tier the paper mentions, and the
		// load it takes off the DB tier.
		Title: "A6: optional Memcached cache tier", file: "ablation_a6_cache.csv",
		mode: scaling.ConScale,
		arms: []ablationArm{cache("cache=off", 0), cache("cache=on(80%hit)", 1)},
		detail: func(res *RunResult) string {
			return fmt.Sprintf("%d db scale-outs, goodput %d", len(res.ScaleOutTimes(cluster.DB)), res.Goodput)
		},
	}, {
		// A7: the QoS trigger on top of DCM in Fig. 11's scenario (a
		// stale, under-allocating profile). The CPU threshold alone
		// cannot see the under-allocation — hardware idles while
		// response times burn — but the SLA trigger can.
		Title: "A7: SLA trigger vs CPU threshold under a stale profile", file: "ablation_a7_sla.csv",
		mode: scaling.DCM,
		base: func(seed uint64, cfg *RunConfig) {
			profile := TrainDCM(seed, cluster.DefaultConfig())
			ccfg := cluster.DefaultConfig()
			ccfg.DatasetScale = 0.5 // system state changed after training
			cfg.Cluster = &ccfg
			cfg.Framework = profiledConfig(scaling.DCM, profile)
		},
		arms: []ablationArm{
			frameworkArm("dcm", unchanged),
			frameworkArm("dcm+sla-trigger", func(f *scaling.Config) {
				f.SLATarget = 0.300 // the paper's web QoS example: p99 < 300 ms
				f.SLAPercentile = 99
			}),
		},
		detail: func(res *RunResult) string { return fmt.Sprintf("goodput %d", res.Goodput) },
	}}
}

// Run executes every arm of the study, in parallel up to MaxWorkers, and
// folds each finished run into its row.
func (a Ablation) Run(seed uint64) []AblationRow {
	base := DefaultRunConfig(a.mode, workload.LargeVariations)
	base.Seed = seed
	if a.base != nil {
		a.base(seed, &base)
	}
	cfgs := make([]RunConfig, len(a.arms))
	for i, arm := range a.arms {
		cfgs[i] = base
		arm.set(&cfgs[i])
	}
	rows := make([]AblationRow, len(cfgs))
	for i, res := range RunMany(cfgs) {
		rows[i] = AblationRow{Label: a.arms[i].label, P95: res.P95, P99: res.P99}
		if a.detail != nil {
			rows[i].Detail = a.detail(res)
		}
	}
	return rows
}

// Artifacts is the study's rows in milliseconds, ablation_<id>.csv.
func (a Ablation) Artifacts(rows []AblationRow) []Artifact {
	return []Artifact{{a.file, sticky(func(w io.Writer) {
		fmt.Fprintln(w, "label,p95_ms,p99_ms,detail")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%.0f,%.0f,%s\n", r.Label, r.P95*1000, r.P99*1000, r.Detail)
		}
	})}}
}
