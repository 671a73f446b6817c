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

// Fig3Outcome runs Fig. 3 and returns its knees beside the paper's and
// one sweep CSV per panel.
func Fig3Outcome(seed uint64) Outcome {
	res := Fig3(seed)
	return Outcome{
		Summary: sticky(func(w io.Writer) {
			fmt.Fprintf(w, "   knees: 1-core=%d, 2-core=%d, 2-core enlarged=%d (paper: 10/20/15)\n",
				res.OneCore.Qlower, res.TwoCore.Qlower, res.TwoCoreEnlarged.Qlower)
		}),
		Artifacts: []Artifact{
			sweepArtifact("fig3a_tomcat_1core.csv", res.OneCore),
			sweepArtifact("fig3b_tomcat_2core.csv", res.TwoCore),
			sweepArtifact("fig3c_tomcat_2core_enlarged.csv", res.TwoCoreEnlarged),
		},
	}
}

// Fig5Study reproduces Figure 5 from the first 150 s of Fig. 1's EC2
// run: mysql1's 50 ms window samples over the 85–105 s period after the
// system scales from 1/1/1 to 1/2/1. It writes
// fig5_mysql_finegrained.csv.
func Fig5Study(seed uint64) Study {
	cfg := paperRun(scaling.EC2, workload.LargeVariations, seed)
	cfg.Duration = 150 * des.Second
	return Study{Cells: []Cell{{Key: "ec2", Config: cfg}}, Fold: foldFig5}
}

// Fig5Result is the fine-grained MySQL view of Figure 5: the 50 ms
// concurrency, throughput, and response-time series over the 20-second
// window after the system scales from 1/1/1 to 1/2/1.
type Fig5Result struct {
	From, To des.Time
	Samples  []metrics.WindowSample
}

// Fig5Window cuts Fig. 5's window out of Fig5Study's run.
func Fig5Window(res *RunResult) Fig5Result {
	const from, to = 85 * des.Second, 105 * des.Second
	var out []metrics.WindowSample
	for _, s := range res.Warehouse.FineSince("mysql1", from) {
		if s.Start < to {
			out = append(out, s)
		}
	}
	return Fig5Result{From: from, To: to, Samples: out}
}

func foldFig5(_ []Cell, results []*RunResult) Outcome {
	res := Fig5Window(results[0])
	return Outcome{
		Summary: sticky(func(w io.Writer) {
			fmt.Fprintf(w, "   %d windows over [%.0fs, %.0fs)\n", len(res.Samples), float64(res.From), float64(res.To))
		}),
		Artifacts: []Artifact{{"fig5_mysql_finegrained.csv", sticky(func(w io.Writer) {
			fmt.Fprintln(w, "time_s,concurrency,throughput_rps,rt_ms,completions,errors")
			for _, s := range res.Samples {
				rt := s.RT * 1000
				if math.IsNaN(rt) {
					rt = 0
				}
				fmt.Fprintf(w, "%.3f,%.2f,%.1f,%.2f,%d,%d\n",
					float64(s.Start), s.Concurrency, s.Throughput, rt, s.Completions, s.Errors)
			}
		})}},
	}
}

// Fig6Study reproduces Figure 6 from Fig. 1's EC2 run: the correlation
// between MySQL's 50 ms concurrency, throughput, and response time over
// the 12-minute bursty run, and the rational concurrency range the SCT
// model derives from it. It writes fig6_mysql_scatter.csv.
func Fig6Study(seed uint64) Study {
	return Study{Cells: []Cell{{Key: "ec2", Config: paperRun(scaling.EC2, workload.LargeVariations, seed)}}, Fold: foldFig6}
}

// Fig6Result holds the scatter-correlation analysis of Figure 6.
type Fig6Result struct {
	TPPoints []sct.ScatterPoint // throughput vs concurrency
	RTPoints []sct.ScatterPoint // response time vs concurrency
	Estimate sct.Estimate       // the rational range / optimal setting
	OK       bool
}

// Fig6Scatter analyses every mysql1 window sample of Fig6Study's run.
func Fig6Scatter(res *RunResult) Fig6Result {
	samples := res.Warehouse.FineSince("mysql1", 0)
	tp, rt := sct.Scatter(samples)
	est, ok := sct.New(sct.Config{}).Estimate(samples)
	return Fig6Result{
		TPPoints: tp,
		RTPoints: rt,
		Estimate: est,
		OK:       ok,
	}
}

// foldFig6 prints the rational range and writes the scatter: one row per
// throughput point, with the response time at the same index (0 past
// the end of the RT points).
func foldFig6(_ []Cell, results []*RunResult) Outcome {
	res := Fig6Scatter(results[0])
	return Outcome{
		Summary: sticky(func(w io.Writer) {
			if !res.OK {
				fmt.Fprintln(w, "   estimate unavailable")
				return
			}
			fmt.Fprintf(w, "   rational range [%d, %d], plateau %.0f q/s, optimal setting %d\n",
				res.Estimate.Qlower, res.Estimate.Qupper, res.Estimate.PlateauTP, res.Estimate.Optimal())
		}),
		Artifacts: []Artifact{{"fig6_mysql_scatter.csv", sticky(func(w io.Writer) {
			fmt.Fprintln(w, "concurrency,throughput_rps,rt_ms")
			for i, tp := range res.TPPoints {
				rt := 0.0
				if i < len(res.RTPoints) {
					rt = res.RTPoints[i].Value * 1000
				}
				fmt.Fprintf(w, "%.2f,%.1f,%.2f\n", tp.Concurrency, tp.Value, rt)
			}
		})}},
	}
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

// Fig7Outcome runs Fig. 7 and returns each panel's knee and peak
// throughput, and one sweep CSV per panel named by its letter and label.
func Fig7Outcome(seed uint64) Outcome {
	panels := Fig7(seed)
	arts := make([]Artifact, len(panels))
	for i, p := range panels {
		arts[i] = sweepArtifact(fmt.Sprintf("fig7%c_%s.csv", 'a'+i, sanitize(p.Label)), p.Sweep)
	}
	return Outcome{
		Summary: sticky(func(w io.Writer) {
			for _, p := range panels {
				fmt.Fprintf(w, "   %s: Qlower=%d TPmax=%.0f\n", p.Label, p.Sweep.Qlower, p.Sweep.MaxTP)
			}
		}),
		Artifacts: arts,
	}
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

// Fig9Outcome returns the trace curves side by side, fig9_traces.csv.
func Fig9Outcome() Outcome {
	traces := Fig9()
	return Outcome{Artifacts: []Artifact{{"fig9_traces.csv", func(w io.Writer) error { return writeTraceCSV(w, traces) }}}}
}

// Fig1Study reproduces Figure 1: the large response-time fluctuations of
// a 3-tier system under hardware-only EC2-AutoScaling on a bursty trace,
// with the VM-count overlay. It writes fig1_ec2_timeline.csv.
func Fig1Study(seed uint64) Study {
	return Study{Cells: []Cell{{Key: "ec2", Config: paperRun(scaling.EC2, workload.LargeVariations, seed)}},
		Fold: foldTimelines("fig1")}
}

// Fig10Study reproduces Figure 10: EC2-AutoScaling vs ConScale under the
// Large Variations trace, starting from 1/1/1 with soft resources
// 1000-60-40. It writes fig10_ec2_timeline.csv and
// fig10_conscale_timeline.csv.
func Fig10Study(seed uint64) Study {
	return Study{Cells: []Cell{
		{Key: "ec2", Config: paperRun(scaling.EC2, workload.LargeVariations, seed)},
		{Key: "conscale", Config: paperRun(scaling.ConScale, workload.LargeVariations, seed)},
	}, Fold: foldTimelines("fig10")}
}

// Fig11Study reproduces Figure 11: DCM (profile trained on the original
// dataset) vs ConScale after the dataset is reduced — the system-state
// change that makes offline-trained soft-resource settings stale. It
// writes fig11_dcm_timeline.csv and fig11_conscale_timeline.csv.
func Fig11Study(seed uint64) Study {
	cells := []Cell{
		{Key: "dcm", Config: paperRun(scaling.DCM, workload.LargeVariations, seed), Train: true},
		{Key: "conscale", Config: paperRun(scaling.ConScale, workload.LargeVariations, seed)},
	}
	for i := range cells {
		ccfg := cluster.DefaultConfig()
		ccfg.DatasetScale = 0.5 // reduced dataset at production time
		cells[i].Config.Cluster = &ccfg
	}
	return Study{Cells: cells, Fold: foldTimelines("fig11")}
}

// foldTimelines prints each run's headline numbers and writes its
// per-second series as <fig>_<key>_timeline.csv.
func foldTimelines(fig string) func([]Cell, []*RunResult) Outcome {
	return func(cells []Cell, results []*RunResult) Outcome {
		arts := make([]Artifact, len(cells))
		for i, c := range cells {
			arts[i] = timelineArtifact(fig+"_"+c.Key+"_timeline.csv", results[i])
		}
		return Outcome{Summary: sticky(func(w io.Writer) { renderRuns(w, results) }), Artifacts: arts}
	}
}

// Table1Row is one row of Table I: tail latencies for one trace.
type Table1Row struct {
	Trace                    string
	EC2P95, EC2P99           float64 // seconds
	ConScaleP95, ConScaleP99 float64
}

// Table1Study reproduces Table I: 95th and 99th percentile response
// times of EC2-AutoScaling vs ConScale under all six bursty traces. Each
// trace is the key of its two cells, EC2's first. It writes
// table1_tail_latency.csv.
func Table1Study(seed uint64) Study {
	var cells []Cell
	for _, tr := range workload.Names() {
		cells = append(cells,
			Cell{Key: tr, Config: paperRun(scaling.EC2, tr, seed)},
			Cell{Key: tr, Config: paperRun(scaling.ConScale, tr, seed)})
	}
	return Study{Cells: cells, Fold: foldTable1}
}

// table1Rows folds Table1Study's results, an EC2 and a ConScale run
// per trace, into one row per trace.
func table1Rows(cells []Cell, results []*RunResult) []Table1Row {
	var rows []Table1Row
	for i := 0; i < len(cells); i += 2 {
		e, c := results[i], results[i+1]
		rows = append(rows, Table1Row{Trace: cells[i].Key,
			EC2P95: e.P95, EC2P99: e.P99, ConScaleP95: c.P95, ConScaleP99: c.P99})
	}
	return rows
}

// foldTable1 prints Table I in the paper's layout and writes it in
// milliseconds.
func foldTable1(cells []Cell, results []*RunResult) Outcome {
	rows := table1Rows(cells, results)
	return Outcome{
		Summary: sticky(func(w io.Writer) { renderTable1(w, rows) }),
		Artifacts: []Artifact{{"table1_tail_latency.csv", sticky(func(w io.Writer) {
			fmt.Fprintln(w, "trace,ec2_p95_ms,ec2_p99_ms,conscale_p95_ms,conscale_p99_ms")
			for _, r := range rows {
				fmt.Fprintf(w, "%s,%.0f,%.0f,%.0f,%.0f\n",
					r.Trace, r.EC2P95*1000, r.EC2P99*1000, r.ConScaleP95*1000, r.ConScaleP99*1000)
			}
		})}},
	}
}

// ablationRow is one arm of an ablation study.
type ablationRow struct {
	Label  string
	P95    float64 // seconds
	P99    float64
	Detail string
}

// ablation is one sensitivity study beyond the paper. Every arm runs the
// large-variations trace under the study's policy with one design choice
// changed; the study reports each arm's tails and a detail column.
type ablation struct {
	// title heads the study's table; file names its CSV artifact.
	title, file string
	mode        scaling.Mode
	// base sets what every arm shares (nil: nothing).
	base func(cell *Cell)
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

// Ablations returns studies A1–A7 in order, each arm a cell keyed by its
// label. Each writes its rows in milliseconds as ablation_<id>.csv.
func Ablations(seed uint64) []Study {
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
	specs := []ablation{{
		// A1: too-coarse windows smear the concurrency signal, too-fine
		// ones starve bins; the detail is the estimate MySQL gets.
		title: "A1: SCT measurement window", file: "ablation_a1_window.csv",
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
		title: "A2: Qlower vs Qupper setting", file: "ablation_a2_qupper.csv",
		mode: scaling.ConScale,
		arms: []ablationArm{
			frameworkArm("setting=Qlower", unchanged),
			frameworkArm("setting=Qupper", func(f *scaling.Config) { f.UseQupper = true }),
		},
	}, {
		// A3: leastconn (the paper's deployment) against roundrobin.
		title: "A3: load-balancer policy", file: "ablation_a3_lb.csv",
		mode: scaling.ConScale,
		arms: []ablationArm{balancer(lb.LeastConn), balancer(lb.RoundRobin)},
	}, {
		// A4: the "quick start but slow turn off" policy against
		// aggressive scale-in, and the oscillation that follows.
		title: "A4: scale-in cooldown", file: "ablation_a4_cooldown.csv",
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
		title: "A5: horizontal vs vertical DB scaling", file: "ablation_a5_vertical.csv",
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
		title: "A6: optional Memcached cache tier", file: "ablation_a6_cache.csv",
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
		title: "A7: SLA trigger vs CPU threshold under a stale profile", file: "ablation_a7_sla.csv",
		mode: scaling.DCM,
		base: func(cell *Cell) {
			ccfg := cluster.DefaultConfig()
			ccfg.DatasetScale = 0.5 // system state changed after training
			cell.Config.Cluster = &ccfg
			cell.Train = true
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
	studies := make([]Study, len(specs))
	for i, a := range specs {
		base := Cell{Config: paperRun(a.mode, workload.LargeVariations, seed)}
		if a.base != nil {
			a.base(&base)
		}
		cells := make([]Cell, len(a.arms))
		for j, arm := range a.arms {
			cells[j] = base
			cells[j].Key = arm.label
			arm.set(&cells[j].Config)
		}
		studies[i] = Study{Cells: cells, Fold: a.fold}
	}
	return studies
}

// fold prints the study's table and writes its CSV.
func (a ablation) fold(cells []Cell, results []*RunResult) Outcome {
	rows := make([]ablationRow, len(cells))
	for i, res := range results {
		rows[i] = ablationRow{Label: cells[i].Key, P95: res.P95, P99: res.P99}
		if a.detail != nil {
			rows[i].Detail = a.detail(res)
		}
	}
	return Outcome{
		Summary: sticky(func(w io.Writer) { renderAblation(w, a.title, rows) }),
		Artifacts: []Artifact{{a.file, sticky(func(w io.Writer) {
			fmt.Fprintln(w, "label,p95_ms,p99_ms,detail")
			for _, r := range rows {
				fmt.Fprintf(w, "%s,%.0f,%.0f,%s\n", r.Label, r.P95*1000, r.P99*1000, r.Detail)
			}
		})}},
	}
}
