// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index). Each benchmark
// regenerates the experiment's dataset and reports the headline quantities
// as custom metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation and prints the rows the paper reports.
//
// Absolute numbers come from the simulator substrate, not the authors'
// VMware testbed; the shapes (who wins, where the knees fall, how they
// shift) are the reproduction targets recorded in EXPERIMENTS.md.
package conscale

import (
	"slices"
	"testing"

	"conscale/internal/cluster"
	"conscale/internal/experiment"
	"conscale/internal/sct"
	"conscale/internal/workload"
)

// BenchmarkFig01_EC2Fluctuation regenerates Fig. 1: response-time
// fluctuations of the 3-tier system under hardware-only EC2-AutoScaling.
func BenchmarkFig01_EC2Fluctuation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig1Study(1).Run(nil)[0]
		b.ReportMetric(res.MaxRT()*1000, "maxRT_ms")
		b.ReportMetric(res.P99*1000, "p99_ms")
		b.ReportMetric(float64(maxVMs(res)), "peak_VMs")
	}
}

func maxVMs(res *experiment.RunResult) int {
	m := 0
	for _, v := range res.VMs {
		if v > m {
			m = v
		}
	}
	return m
}

// BenchmarkFig03_TomcatConcurrencySweep regenerates Fig. 3: the optimal
// concurrency of Tomcat at 1 core (paper: 10), 2 cores (20), and 2 cores
// with the dataset doubled (15).
func BenchmarkFig03_TomcatConcurrencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig3(1)
		b.ReportMetric(float64(res.OneCore.Qlower), "knee_1core")
		b.ReportMetric(float64(res.TwoCore.Qlower), "knee_2core")
		b.ReportMetric(float64(res.TwoCoreEnlarged.Qlower), "knee_2core_bigdata")
	}
}

// BenchmarkFig05_FineGrainedMySQL regenerates Fig. 5: the 50 ms MySQL
// series over the 20 s after the 1/1/1 -> 1/2/1 scale-out.
func BenchmarkFig05_FineGrainedMySQL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig5Window(experiment.Fig5Study(1).Run(nil)[0])
		maxConc, maxTP := 0.0, 0.0
		for _, s := range res.Samples {
			if s.Concurrency > maxConc {
				maxConc = s.Concurrency
			}
			if s.Throughput > maxTP {
				maxTP = s.Throughput
			}
		}
		b.ReportMetric(float64(len(res.Samples)), "windows")
		b.ReportMetric(maxConc, "peak_concurrency")
		b.ReportMetric(maxTP, "peak_qps")
	}
}

// BenchmarkFig06_ScatterCorrelation regenerates Fig. 6: MySQL's
// concurrency-throughput scatter over a 12-minute bursty run and the
// rational range the SCT model extracts from it.
func BenchmarkFig06_ScatterCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig6Scatter(experiment.Fig6Study(1).Run(nil)[0])
		if res.OK {
			b.ReportMetric(float64(res.Estimate.Qlower), "Qlower")
			b.ReportMetric(float64(res.Estimate.Qupper), "Qupper")
			b.ReportMetric(res.Estimate.PlateauTP, "plateau_qps")
		}
		b.ReportMetric(float64(len(res.TPPoints)), "scatter_points")
	}
}

// BenchmarkFig07_VerticalScaling regenerates Fig. 7: the knee shifts from
// vertical scaling (a/d: 10 -> 20), dataset growth (b/e: 20 -> 15), and
// workload type (c/f: down to ~5 for the I/O-intensive mix).
func BenchmarkFig07_VerticalScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels := experiment.Fig7(1)
		names := []string{"a_db1core", "d_db2core", "b_app_orig", "e_app_big", "c_db_cpu", "f_db_io"}
		for j, p := range panels {
			b.ReportMetric(float64(p.Sweep.Qlower), "knee_"+names[j])
		}
	}
}

// BenchmarkFig09_Traces regenerates Fig. 9: the six bursty user traces.
func BenchmarkFig09_Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces := experiment.Fig9()
		peak := 0
		for _, tr := range traces {
			for _, v := range tr.Users {
				if v > peak {
					peak = v
				}
			}
		}
		b.ReportMetric(float64(len(traces)), "traces")
		b.ReportMetric(float64(peak), "peak_users")
	}
}

// BenchmarkFig10_EC2vsConScale regenerates Fig. 10: the full timeline
// comparison on the Large Variations trace.
func BenchmarkFig10_EC2vsConScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig10Study(1).Run(nil)
		ec2, conscale := res[0], res[1]
		b.ReportMetric(ec2.P99*1000, "ec2_p99_ms")
		b.ReportMetric(conscale.P99*1000, "conscale_p99_ms")
		b.ReportMetric(float64(conscale.Goodput-ec2.Goodput), "goodput_gain")
	}
}

// BenchmarkTable1_TailLatency regenerates Table I: 95th/99th percentile
// response times for all six traces under both frameworks. One trace per
// sub-benchmark, the study's two cells keyed by it, keeps the output
// aligned with the paper's columns.
func BenchmarkTable1_TailLatency(b *testing.B) {
	study := experiment.Table1Study(1)
	for _, tr := range workload.Names() {
		trace := only(study, tr)
		b.Run(tr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := trace.Run(nil)
				er, cr := res[0], res[1]
				b.ReportMetric(er.P95*1000, "ec2_p95_ms")
				b.ReportMetric(er.P99*1000, "ec2_p99_ms")
				b.ReportMetric(cr.P95*1000, "conscale_p95_ms")
				b.ReportMetric(cr.P99*1000, "conscale_p99_ms")
			}
		})
	}
}

// BenchmarkFig11_DCMvsConScale regenerates Fig. 11: ConScale against a DCM
// whose offline profile went stale after a system-state (dataset) change.
func BenchmarkFig11_DCMvsConScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig11Study(1).Run(nil)
		b.ReportMetric(res[0].P99*1000, "dcm_p99_ms")
		b.ReportMetric(res[1].P99*1000, "conscale_p99_ms")
	}
}

// benchAblation replays study i of experiment.Ablations (A1 is 0) and
// reports each arm's p95 or p99 under the arm's label.
func benchAblation(b *testing.B, i int, tail string) {
	study := experiment.Ablations(1)[i]
	for n := 0; n < b.N; n++ {
		for j, r := range study.Run(nil) {
			v := r.P99
			if tail == "p95" {
				v = r.P95
			}
			b.ReportMetric(v*1000, study.Cells[j].Key+"_"+tail+"_ms")
		}
	}
}

// BenchmarkAblation_WindowSize (A1): sensitivity of the SCT estimate and
// end-to-end tails to the fine-grained measurement interval.
func BenchmarkAblation_WindowSize(b *testing.B) { benchAblation(b, 0, "p99") }

// BenchmarkAblation_QupperSetting (A2): the latency cost of choosing the
// upper bound of the rational range instead of Qlower.
func BenchmarkAblation_QupperSetting(b *testing.B) { benchAblation(b, 1, "p95") }

// BenchmarkAblation_LBPolicy (A3): leastconn vs roundrobin balancing.
func BenchmarkAblation_LBPolicy(b *testing.B) { benchAblation(b, 2, "p95") }

// BenchmarkAblation_Cooldown (A4): the "quick start but slow turn off"
// policy against aggressive scale-in.
func BenchmarkAblation_Cooldown(b *testing.B) { benchAblation(b, 3, "p99") }

// BenchmarkAblation_VerticalScaling (A5): horizontal vs vertical DB
// scaling under ConScale.
func BenchmarkAblation_VerticalScaling(b *testing.B) { benchAblation(b, 4, "p99") }

// BenchmarkAblation_CacheTier (A6): the optional Memcached tier's effect
// on DB pressure and tails.
func BenchmarkAblation_CacheTier(b *testing.B) { benchAblation(b, 5, "p99") }

// BenchmarkAblation_SLATrigger (A7): the QoS trigger's value in the
// under-allocation regime a stale DCM profile creates.
func BenchmarkAblation_SLATrigger(b *testing.B) { benchAblation(b, 6, "p99") }

// benchChaosScenario runs one canonical fault scenario's cells of the
// chaos study across the three controllers and reports each one's p99 —
// the robustness rows of the chaos evaluation (EXPERIMENTS.md "Chaos
// scenarios").
func benchChaosScenario(b *testing.B, name string) {
	scenario := only(experiment.ChaosStudy(1), name)
	for i := 0; i < b.N; i++ {
		for _, r := range scenario.Run(nil) {
			b.ReportMetric(r.P99*1000, r.Mode.String()+"_p99_ms")
		}
	}
}

// only is s with just the cells keyed key.
func only(s experiment.Study, key string) experiment.Study {
	s.Cells = slices.DeleteFunc(slices.Clone(s.Cells), func(c experiment.Cell) bool { return c.Key != key })
	return s
}

// BenchmarkChaos_Crashes: Poisson VM crashes across the app and DB tiers.
func BenchmarkChaos_Crashes(b *testing.B) { benchChaosScenario(b, "crashes") }

// BenchmarkChaos_Interference: noisy-neighbor CPU slowdown bursts on the
// app tier.
func BenchmarkChaos_Interference(b *testing.B) { benchChaosScenario(b, "interference") }

// BenchmarkChaos_NetJitter: latency windows on the app->db RPC edge.
func BenchmarkChaos_NetJitter(b *testing.B) { benchChaosScenario(b, "net-jitter") }

// BenchmarkChaos_Stragglers: 6x slower VM boots plus mid-run crashes.
func BenchmarkChaos_Stragglers(b *testing.B) { benchChaosScenario(b, "stragglers") }

// BenchmarkSimulatorEventRate measures the raw simulator throughput: how
// many end-to-end RUBBoS requests the DES processes per wall-clock second
// (the substrate's own performance, independent of any experiment).
func BenchmarkSimulatorEventRate(b *testing.B) {
	b.ReportAllocs()
	c := cluster.New(cluster.DefaultConfig())
	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(func(ok bool) {
			if ok {
				done++
			}
		})
		if i%1024 == 1023 {
			c.Eng.Run()
		}
	}
	c.Eng.Run()
	if done == 0 {
		b.Fatal("no requests completed")
	}
}

// BenchmarkSCTEstimate measures the cost of one SCT estimation over a
// 3-minute window of 50 ms samples (3600 tuples) — the controller runs
// this every few seconds per server, so it must be cheap.
func BenchmarkSCTEstimate(b *testing.B) {
	res := experiment.Fig5Window(experiment.Fig5Study(1).Run(nil)[0]) // reuse a real fine-grained sample set
	est := sct.New(sct.Config{MinTotalSamples: 10, MinDistinctBins: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = est.Estimate(res.Samples)
	}
}
