package experiment

import (
	"fmt"

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

// AblationWindowSize (A1) varies the fine-grained measurement interval and
// reports the SCT estimate MySQL gets from the same scenario: too-coarse
// windows smear the concurrency signal, too-fine ones starve bins.
func AblationWindowSize(seed uint64) []AblationRow {
	windows := []des.Time{10 * des.Millisecond, 50 * des.Millisecond, 250 * des.Millisecond, des.Second}
	cfgs := make([]RunConfig, len(windows))
	for i, w := range windows {
		ccfg := cluster.DefaultConfig()
		ccfg.Window = w
		cfg := DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Seed = seed
		cfg.Cluster = &ccfg
		cfgs[i] = cfg
	}
	results := RunMany(cfgs)
	rows := make([]AblationRow, len(windows))
	for i, res := range results {
		detail := "no estimate"
		if est, ok := res.FinalEstimates["mysql1"]; ok {
			detail = fmt.Sprintf("mysql1 Qlower=%d Qupper=%d", est.Qlower, est.Qupper)
		}
		rows[i] = AblationRow{
			Label:  fmt.Sprintf("window=%dms", int(windows[i]/des.Millisecond)),
			P95:    res.P95,
			P99:    res.P99,
			Detail: detail,
		}
	}
	return rows
}

// AblationQupper (A2) compares choosing Qlower (the paper's pick) against
// Qupper as the soft-resource setting: both sustain maximum throughput,
// but the upper bound operates at higher latency.
func AblationQupper(seed uint64) []AblationRow {
	labels := []string{"setting=Qlower", "setting=Qupper"}
	cfgs := make([]RunConfig, len(labels))
	for i, upper := range []bool{false, true} {
		fcfg := scaling.DefaultConfig(scaling.ConScale)
		fcfg.UseQupper = upper
		cfg := DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Seed = seed
		cfg.Framework = &fcfg
		cfgs[i] = cfg
	}
	results := RunMany(cfgs)
	rows := make([]AblationRow, len(labels))
	for i, res := range results {
		rows[i] = AblationRow{Label: labels[i], P95: res.P95, P99: res.P99}
	}
	return rows
}

// AblationLBPolicy (A3) compares leastconn (the paper's deployment) with
// roundrobin balancing under ConScale.
func AblationLBPolicy(seed uint64) []AblationRow {
	policies := []lb.Policy{lb.LeastConn, lb.RoundRobin}
	cfgs := make([]RunConfig, len(policies))
	for i, policy := range policies {
		ccfg := cluster.DefaultConfig()
		ccfg.LBPolicy = policy
		cfg := DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Seed = seed
		cfg.Cluster = &ccfg
		cfgs[i] = cfg
	}
	results := RunMany(cfgs)
	rows := make([]AblationRow, len(policies))
	for i, res := range results {
		rows[i] = AblationRow{Label: "lb=" + policies[i].String(), P95: res.P95, P99: res.P99}
	}
	return rows
}

// AblationCooldown (A4) turns the "quick start but slow turn off" policy
// off (aggressive scale-in) and measures the resulting oscillation.
func AblationCooldown(seed uint64) []AblationRow {
	labels := []string{"slow-turn-off", "fast-turn-off"}
	cfgs := make([]RunConfig, len(labels))
	for i, slow := range []bool{true, false} {
		fcfg := scaling.DefaultConfig(scaling.EC2)
		if !slow {
			fcfg.SustainIn = 5
			fcfg.InCooldown = 10 * des.Second
		}
		cfg := DefaultRunConfig(scaling.EC2, workload.LargeVariations)
		cfg.Seed = seed
		cfg.Framework = &fcfg
		cfgs[i] = cfg
	}
	results := RunMany(cfgs)
	rows := make([]AblationRow, len(labels))
	for i, res := range results {
		ins := 0
		for _, e := range res.Events {
			if e.Kind == scaling.ScaleIn {
				ins++
			}
		}
		rows[i] = AblationRow{
			Label:  labels[i],
			P95:    res.P95,
			P99:    res.P99,
			Detail: fmt.Sprintf("%d scale-in events", ins),
		}
	}
	return rows
}

// AblationVertical (A5) compares horizontal DB scaling (new VMs, 15 s
// preparation each) with vertical scaling (adding vCPUs to live VMs, no
// preparation) under ConScale — the scale-up strategy of the paper's
// Section III-C.1, whose optimal-concurrency doubling the SCT model must
// track online.
func AblationVertical(seed uint64) []AblationRow {
	labels := []string{"db=horizontal", "db=vertical(4max)"}
	cfgs := make([]RunConfig, len(labels))
	for i, vertical := range []bool{false, true} {
		fcfg := scaling.DefaultConfig(scaling.ConScale)
		if vertical {
			fcfg.VerticalDBMaxCores = 4
		}
		cfg := DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Seed = seed
		cfg.Framework = &fcfg
		cfgs[i] = cfg
	}
	results := RunMany(cfgs)
	rows := make([]AblationRow, len(labels))
	for i, res := range results {
		ups := 0
		for _, e := range res.Events {
			if e.Kind == scaling.ScaleOut && e.Tier == cluster.DB {
				ups++
			}
		}
		rows[i] = AblationRow{
			Label:  labels[i],
			P95:    res.P95,
			P99:    res.P99,
			Detail: fmt.Sprintf("%d db scale events", ups),
		}
	}
	return rows
}

// AblationCacheTier (A6) adds the optional Memcached tier the paper
// mentions and measures how much load it takes off the DB tier.
func AblationCacheTier(seed uint64) []AblationRow {
	labels := []string{"cache=off", "cache=on(80%hit)"}
	cfgs := make([]RunConfig, len(labels))
	for i, caches := range []int{0, 1} {
		ccfg := cluster.DefaultConfig()
		ccfg.CacheServers = caches
		ccfg.CacheHitRatio = 0.8
		cfg := DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Seed = seed
		cfg.Cluster = &ccfg
		cfgs[i] = cfg
	}
	results := RunMany(cfgs)
	rows := make([]AblationRow, len(labels))
	for i, res := range results {
		dbOuts := 0
		for _, e := range res.Events {
			if e.Kind == scaling.ScaleOut && e.Tier == cluster.DB {
				dbOuts++
			}
		}
		rows[i] = AblationRow{
			Label:  labels[i],
			P95:    res.P95,
			P99:    res.P99,
			Detail: fmt.Sprintf("%d db scale-outs, goodput %d", dbOuts, res.Goodput),
		}
	}
	return rows
}

// AblationSLATrigger (A7) arms the QoS trigger on top of the DCM baseline
// in the Fig. 11 scenario (stale under-allocating profile): the CPU
// threshold alone cannot see the under-allocation effect — hardware idles
// while response times burn — but the SLA trigger can.
func AblationSLATrigger(seed uint64) []AblationRow {
	profile := TrainDCM(seed, cluster.DefaultConfig())
	ccfg := cluster.DefaultConfig()
	ccfg.DatasetScale = 0.5 // system state changed after training

	labels := []string{"dcm", "dcm+sla-trigger"}
	cfgs := make([]RunConfig, len(labels))
	for i, withSLA := range []bool{false, true} {
		fcfg := profiledConfig(scaling.DCM, profile)
		if withSLA {
			fcfg.SLATarget = 0.300 // the paper's web QoS example: p99 < 300 ms
			fcfg.SLAPercentile = 99
		}
		cfg := DefaultRunConfig(scaling.DCM, workload.LargeVariations)
		cfg.Seed = seed
		cfg.Cluster = &ccfg
		cfg.Framework = fcfg
		cfgs[i] = cfg
	}
	results := RunMany(cfgs)
	rows := make([]AblationRow, len(labels))
	for i, res := range results {
		rows[i] = AblationRow{
			Label:  labels[i],
			P95:    res.P95,
			P99:    res.P99,
			Detail: fmt.Sprintf("goodput %d", res.Goodput),
		}
	}
	return rows
}
