// Command experiments regenerates the paper's tables and figures. Each
// experiment writes its dataset as CSV files under -out and prints a
// human-readable summary to stdout. Independent runs inside each
// experiment fan out over -parallel workers (default: GOMAXPROCS) with
// output byte-identical to a sequential execution.
//
// Usage:
//
//	experiments -run all -out results/
//	experiments -run all -parallel 8
//	experiments -run table1 -cpuprofile cpu.pprof
//	experiments -run fig3,fig7
//	experiments -run ablations
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"conscale/internal/admission"
	"conscale/internal/des"
	"conscale/internal/experiment"
	"conscale/internal/forensics"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

type runner struct {
	name string
	desc string
	fn   func(seed uint64, outDir string) error
}

var runners = []runner{
	{"fig1", "EC2-AutoScaling RT fluctuations under the Large Variations trace", runFig1},
	{"fig3", "Tomcat concurrency sweeps: 1-core / 2-core / enlarged dataset", runFig3},
	{"fig5", "MySQL fine-grained 50 ms series during the 1/1/1 -> 1/2/1 scaling", runFig5},
	{"fig6", "MySQL scatter correlation and rational concurrency range", runFig6},
	{"fig7", "Optimal-concurrency shifts: cores, dataset size, workload type", runFig7},
	{"fig9", "The six bursty workload traces", runFig9},
	{"fig10", "EC2-AutoScaling vs ConScale full timelines", runFig10},
	{"table1", "Tail latencies, EC2 vs ConScale, all six traces", runTable1},
	{"fig11", "DCM (stale profile) vs ConScale after a system-state change", runFig11},
	{"ablations", "A1 window size, A2 Qupper, A3 LB policy, A4 cooldown", runAblations},
	{"chaos", "Controller robustness under injected cloud faults", runChaos},
	{"blame", "Latency-blame attribution: traced EC2 vs DCM vs ConScale", runBlame},
	{"slo", "SLO burn-rate detection lead time: EC2 vs DCM vs ConScale", runSLO},
	{"report", "All-in-one reproduction report (Table I + Fig. 3 + Fig. 11)", runReport},
	{"scale", "Million-client scale mode: streaming population over striped cells", runScale},
	{"tournament", "Full-factorial controller tournament: every controller × trace × tier", runTournament},
	{"episodes", "Fluctuation forensics: episode detection + causal attribution per controller", runEpisodes},
	{"hypothesis", "Declared-hypothesis validation: DES≡MVA steady-state, calm-regime drift, blame conservation, SCT tail dominance", runHypothesis},
	{"frontier", "Admission frontier: admission policy × controller × trace on the p99-vs-goodput plane", runFrontier},
}

// heavyRunners are excluded from `-run all` and must be requested by id:
// the scale sweep's 1M-client tier, the tournament and frontier full
// factorials, and the hypothesis sweeps multiply the whole-suite wall
// time.
var heavyRunners = map[string]bool{"scale": true, "tournament": true, "episodes": true, "hypothesis": true, "frontier": true}

// selectRunners resolves a -run spec ("all" or a comma-separated id list)
// against the runner table, preserving table order and deduplicating.
// Unknown ids are an error that names every available id. "all" selects
// every runner except the heavy ones (currently `scale`), which must be
// requested explicitly.
func selectRunners(spec string) ([]runner, error) {
	if strings.TrimSpace(strings.ToLower(spec)) == "all" {
		var picked []runner
		for _, r := range runners {
			if !heavyRunners[r.name] {
				picked = append(picked, r)
			}
		}
		return picked, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id != "" {
			want[id] = true
		}
	}
	var picked []runner
	for _, r := range runners {
		if want[r.name] {
			picked = append(picked, r)
			delete(want, r.name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment id(s) %s; available: all, %s",
			strings.Join(unknown, ", "), availableIDs())
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q; available: all, %s",
			spec, availableIDs())
	}
	return picked, nil
}

func availableIDs() string {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.name
	}
	return strings.Join(ids, ", ")
}

// Scale-mode sweep flags (the `-run scale` experiment). Declared at
// package level so the runner function can read them after flag.Parse.
var (
	scaleClients  = flag.String("scale-clients", "10000,100000,1000000", "scale sweep: comma-separated peak client counts")
	scaleModes    = flag.String("scale-modes", "ec2,dcm,conscale", "scale sweep: comma-separated frameworks")
	scaleCells    = flag.Int("scale-cells", 16, "scale sweep: independent n-tier cells per run")
	scaleDuration = flag.Float64("scale-duration", 120, "scale sweep: simulated seconds per run")
	scaleWorkers  = flag.String("scale-workers", "", "scale sweep: comma-separated striper worker counts, repeating each sweep point per count (e.g. 1,2,4,8 records a scaling curve; empty = one auto-sized run)")
)

// Tournament flags (the `-run tournament` experiment).
var (
	tournControllers = flag.String("tournament-controllers", "", "tournament: comma-separated controller names (default: every registered controller)")
	tournTraces      = flag.String("tournament-traces", "", "tournament: comma-separated trace names (default: all six)")
	tournTiers       = flag.String("tournament-tiers", "2500,7500", "tournament: comma-separated peak client counts")
	tournDuration    = flag.Float64("tournament-duration", 300, "tournament: simulated seconds per cell")
)

// Hypothesis-validation flags (the `-run hypothesis` experiment).
var (
	hypoIDs      = flag.String("hypothesis-ids", "", "hypothesis: comma-separated hypothesis ids (default: all declared)")
	hypoSeeds    = flag.Int("hypothesis-seeds", 0, "hypothesis: seeds per cell (default 5)")
	hypoDuration = flag.Float64("hypothesis-duration", 0, "hypothesis: steady-cell simulated seconds (default 300)")
	hypoUsers    = flag.Int("hypothesis-users", 0, "hypothesis: trace-sweep peak client population (default 7500)")
	hypoTraces   = flag.String("hypothesis-traces", "", "hypothesis: comma-separated sweep traces (default: all six)")
)

// Episode-forensics flags (the `-run episodes` experiment).
var (
	epControllers = flag.String("episodes-controllers", "", "episodes: comma-separated controller names (default: ec2,dcm,conscale,target-tracking-sct)")
	epTraces      = flag.String("episodes-traces", "", "episodes: comma-separated trace names (default: all six)")
	epUsers       = flag.Int("episodes-users", 0, "episodes: peak client population per cell (default 7500)")
	epDuration    = flag.Float64("episodes-duration", 0, "episodes: simulated seconds per cell (default 720)")
	epChaos       = flag.Bool("episodes-chaos", true, "episodes: arm the deterministic fault overlay (the attribution score's ground truth)")
)

// Admission-frontier flags (the `-run frontier` experiment). Policy
// specs carry commas ("codel:target=250ms,interval=1s"), so the policy
// list is semicolon-separated.
var (
	frControllers = flag.String("frontier-controllers", "", "frontier: comma-separated controller names (default: ec2,dcm,conscale,target-tracking-sct)")
	frPolicies    = flag.String("frontier-policies", "", "frontier: semicolon-separated admission policy specs (default: always; queue-cap:cap=300; codel:target=100ms,interval=200ms; priority:cap=300,browse=75)")
	frTraces      = flag.String("frontier-traces", "", "frontier: comma-separated trace names (default: all six)")
	frClients     = flag.Int("frontier-clients", 0, "frontier: peak client count per cell (default 100000)")
	frDuration    = flag.Float64("frontier-duration", 0, "frontier: simulated seconds per run (default 120)")
	frThink       = flag.Float64("frontier-think", 0, "frontier: mean client think time in seconds (default 3, the paper's evaluation setting)")
)

func main() {
	var (
		run        = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		out        = flag.String("out", "results", "output directory for CSV datasets")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		list       = flag.Bool("list", false, "list available experiments and exit")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker fan-out for independent runs (1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		check      = flag.Bool("check", false, "validate flags and -run ids, then exit without running (doc-drift guard)")
	)
	flag.Parse()

	if *check {
		if _, err := selectRunners(*run); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := parseScaleSweep(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := parseTournament(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := parseEpisodes(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := parseHypothesis(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := parseFrontier(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println("ok")
		return
	}

	if *list {
		for _, r := range runners {
			fmt.Printf("%-10s %s\n", r.name, r.desc)
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	experiment.SetMaxWorkers(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	picked, err := selectRunners(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	total := time.Now()
	for _, r := range picked {
		fmt.Printf("== %s: %s\n", r.name, r.desc)
		start := time.Now()
		if err := r.fn(*seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
	}
	fmt.Printf("total: %d experiments in %.1fs (workers=%d)\n",
		len(picked), time.Since(total).Seconds(), experiment.MaxWorkers())

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func writeCSV(outDir, name string, write func(f *os.File) error) error {
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("   wrote %s\n", path)
	return nil
}

func runFig1(seed uint64, outDir string) error {
	res := experiment.Fig1(seed)
	fmt.Printf("   maxRT=%.0fms p99=%.0fms, %d scaling events\n",
		res.MaxRT()*1000, res.P99*1000, len(res.Events))
	return writeCSV(outDir, "fig1_ec2_timeline.csv", func(f *os.File) error {
		return experiment.WriteTimelineCSV(f, res)
	})
}

func runFig3(seed uint64, outDir string) error {
	res := experiment.Fig3(seed)
	fmt.Printf("   knees: 1-core=%d, 2-core=%d, 2-core enlarged=%d (paper: 10/20/15)\n",
		res.OneCore.Qlower, res.TwoCore.Qlower, res.TwoCoreEnlarged.Qlower)
	for _, p := range []struct {
		file  string
		sweep experiment.SweepResult
	}{
		{"fig3a_tomcat_1core.csv", res.OneCore},
		{"fig3b_tomcat_2core.csv", res.TwoCore},
		{"fig3c_tomcat_2core_enlarged.csv", res.TwoCoreEnlarged},
	} {
		if err := writeCSV(outDir, p.file, func(f *os.File) error {
			return experiment.WriteSweepCSV(f, p.sweep)
		}); err != nil {
			return err
		}
	}
	return nil
}

func runFig5(seed uint64, outDir string) error {
	res := experiment.Fig5(seed)
	fmt.Printf("   %d windows over [%.0fs, %.0fs)\n", len(res.Samples), float64(res.From), float64(res.To))
	return writeCSV(outDir, "fig5_mysql_finegrained.csv", func(f *os.File) error {
		return experiment.WriteSamplesCSV(f, res)
	})
}

func runFig6(seed uint64, outDir string) error {
	res := experiment.Fig6(seed)
	if res.OK {
		fmt.Printf("   rational range [%d, %d], plateau %.0f q/s, optimal setting %d\n",
			res.Estimate.Qlower, res.Estimate.Qupper, res.Estimate.PlateauTP, res.Estimate.Optimal())
	} else {
		fmt.Println("   estimate unavailable")
	}
	return writeCSV(outDir, "fig6_mysql_scatter.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "concurrency,throughput_rps,rt_ms"); err != nil {
			return err
		}
		for i := range res.TPPoints {
			rt := 0.0
			if i < len(res.RTPoints) {
				rt = res.RTPoints[i].Value * 1000
			}
			if _, err := fmt.Fprintf(f, "%.2f,%.1f,%.2f\n",
				res.TPPoints[i].Concurrency, res.TPPoints[i].Value, rt); err != nil {
				return err
			}
		}
		return nil
	})
}

func runFig7(seed uint64, outDir string) error {
	panels := experiment.Fig7(seed)
	for i, p := range panels {
		fmt.Printf("   %s: Qlower=%d TPmax=%.0f\n", p.Label, p.Sweep.Qlower, p.Sweep.MaxTP)
		file := fmt.Sprintf("fig7%c_%s.csv", 'a'+i, sanitize(p.Label))
		if err := writeCSV(outDir, file, func(f *os.File) error {
			return experiment.WriteSweepCSV(f, p.Sweep)
		}); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(label string) string {
	s := strings.ToLower(label)
	s = strings.NewReplacer(":", "", " ", "_", "(", "", ")", "", "/", "-").Replace(s)
	return s
}

func runFig9(_ uint64, outDir string) error {
	return writeCSV(outDir, "fig9_traces.csv", func(f *os.File) error {
		return experiment.WriteTraceCSV(f, experiment.Fig9())
	})
}

func runFig10(seed uint64, outDir string) error {
	res := experiment.Fig10(seed)
	experiment.RenderCompare(os.Stdout, res)
	if err := writeCSV(outDir, "fig10_ec2_timeline.csv", func(f *os.File) error {
		return experiment.WriteTimelineCSV(f, res.Baseline)
	}); err != nil {
		return err
	}
	return writeCSV(outDir, "fig10_conscale_timeline.csv", func(f *os.File) error {
		return experiment.WriteTimelineCSV(f, res.ConScale)
	})
}

func runFig11(seed uint64, outDir string) error {
	res := experiment.Fig11(seed)
	experiment.RenderCompare(os.Stdout, res)
	if err := writeCSV(outDir, "fig11_dcm_timeline.csv", func(f *os.File) error {
		return experiment.WriteTimelineCSV(f, res.Baseline)
	}); err != nil {
		return err
	}
	return writeCSV(outDir, "fig11_conscale_timeline.csv", func(f *os.File) error {
		return experiment.WriteTimelineCSV(f, res.ConScale)
	})
}

func runTable1(seed uint64, outDir string) error {
	rows := experiment.Table1(seed)
	experiment.RenderTable1(os.Stdout, rows)
	return writeCSV(outDir, "table1_tail_latency.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "trace,ec2_p95_ms,ec2_p99_ms,conscale_p95_ms,conscale_p99_ms"); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(f, "%s,%.0f,%.0f,%.0f,%.0f\n",
				r.Trace, r.EC2P95*1000, r.EC2P99*1000, r.ConScaleP95*1000, r.ConScaleP99*1000); err != nil {
				return err
			}
		}
		return nil
	})
}

func runAblations(seed uint64, outDir string) error {
	studies := []struct {
		title string
		file  string
		rows  []experiment.AblationRow
	}{
		{"A1: SCT measurement window", "ablation_a1_window.csv", experiment.AblationWindowSize(seed)},
		{"A2: Qlower vs Qupper setting", "ablation_a2_qupper.csv", experiment.AblationQupper(seed)},
		{"A3: load-balancer policy", "ablation_a3_lb.csv", experiment.AblationLBPolicy(seed)},
		{"A4: scale-in cooldown", "ablation_a4_cooldown.csv", experiment.AblationCooldown(seed)},
		{"A5: horizontal vs vertical DB scaling", "ablation_a5_vertical.csv", experiment.AblationVertical(seed)},
		{"A6: optional Memcached cache tier", "ablation_a6_cache.csv", experiment.AblationCacheTier(seed)},
		{"A7: SLA trigger vs CPU threshold under a stale profile", "ablation_a7_sla.csv", experiment.AblationSLATrigger(seed)},
	}
	for _, st := range studies {
		experiment.RenderAblation(os.Stdout, st.title, st.rows)
		rows := st.rows
		if err := writeCSV(outDir, st.file, func(f *os.File) error {
			if _, err := fmt.Fprintln(f, "label,p95_ms,p99_ms,detail"); err != nil {
				return err
			}
			for _, r := range rows {
				if _, err := fmt.Fprintf(f, "%s,%.0f,%.0f,%s\n",
					r.Label, r.P95*1000, r.P99*1000, r.Detail); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func runChaos(seed uint64, outDir string) error {
	rows := experiment.ChaosTable(seed, 0)
	experiment.RenderChaosTable(os.Stdout, rows)

	// Timeline overlays for the interference scenario, where the three
	// controllers separate most visibly.
	for _, res := range experiment.ChaosTimelines(seed, "interference", 0) {
		fmt.Println()
		experiment.RenderChaosTimeline(os.Stdout,
			fmt.Sprintf("chaos/interference: %s", res.Mode), res)
	}

	return writeCSV(outDir, "chaos_tail_latency.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "scenario,controller,p95_ms,p99_ms,error_rate,goodput,fault_windows"); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(f, "%s,%s,%.0f,%.0f,%.4f,%d,%d\n",
				r.Scenario, r.Mode, r.P95*1000, r.P99*1000, r.ErrorRate, r.Goodput, r.Windows); err != nil {
				return err
			}
		}
		return nil
	})
}

func runBlame(seed uint64, outDir string) error {
	results := experiment.Blame(seed)
	experiment.RenderBlame(os.Stdout, results)

	for _, b := range results {
		mode := sanitize(b.Mode.String())
		if err := writeCSV(outDir, "blame_"+mode+".csv", func(f *os.File) error {
			return trace.WriteBlameCSV(f, b.Mode.String(), b.Rows)
		}); err != nil {
			return err
		}
		if err := writeCSV(outDir, "blame_audit_"+mode+".csv", func(f *os.File) error {
			return trace.WriteAuditCSV(f, b.Res.Audit)
		}); err != nil {
			return err
		}
		slowest := b.Res.Tracer.Slowest()
		if err := writeCSV(outDir, "blame_trace_"+mode+".json", func(f *os.File) error {
			return trace.WriteChromeTrace(f, slowest, b.Res.Audit)
		}); err != nil {
			return err
		}
		// Waterfall of the single slowest sampled request per controller.
		if len(slowest) > 0 {
			fmt.Printf("\n   slowest sampled request, %s (rt=%.0fms):\n", b.Mode, slowest[0].RT()*1000)
			if err := trace.WriteWaterfall(os.Stdout, slowest[0]); err != nil {
				return err
			}
		}
	}
	fmt.Printf("\n%s\n", trace.WaterfallLegend)
	return nil
}

func runSLO(seed uint64, outDir string) error {
	// Showcase scrape timelines for the headline trace — one OpenMetrics
	// file per controller, replayable into any Prometheus-compatible tool,
	// streamed to disk as the runs scrape.
	var sinks []*omSink
	runs := experiment.SLODetection(seed, func(trace string, mode scaling.Mode) io.Writer {
		if trace != workload.LargeVariations {
			return nil
		}
		s := &omSink{path: filepath.Join(outDir, "slo_scrape_"+sanitize(mode.String())+".om")}
		s.f, s.err = os.Create(s.path)
		sinks = append(sinks, s)
		return s
	})
	var sinkErr error
	for _, s := range sinks {
		if err := s.close(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	if sinkErr != nil {
		return sinkErr
	}
	experiment.RenderSLO(os.Stdout, runs)

	if err := writeCSV(outDir, "slo_leadtime.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "trace,controller,episodes,alerts,detected,true_positives,precision,recall,lead_count,mean_lead_s,min_lead_s,max_lead_s,slo_only"); err != nil {
			return err
		}
		for _, r := range runs {
			lead, lo, hi := "", "", ""
			if r.Row.LeadCount > 0 {
				lead = fmt.Sprintf("%.1f", r.Row.MeanLead)
				lo = fmt.Sprintf("%.1f", r.Row.MinLead)
				hi = fmt.Sprintf("%.1f", r.Row.MaxLead)
			}
			if _, err := fmt.Fprintf(f, "%s,%s,%d,%d,%d,%d,%.3f,%.3f,%d,%s,%s,%s,%d\n",
				r.Trace, r.Mode, r.Row.Episodes, r.Row.Alerts, r.Row.Detected,
				r.Row.TruePositives, r.Row.Precision, r.Row.Recall,
				r.Row.LeadCount, lead, lo, hi, r.Row.SLOOnly); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	for _, s := range sinks {
		fmt.Printf("   wrote %s\n", s.path)
	}
	return nil
}

// omSink is a results file a run streams its OpenMetrics timeline into.
// It keeps the first error, from creating the file or writing it, for
// close to report.
type omSink struct {
	path string
	f    *os.File
	err  error
}

func (s *omSink) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.f.Write(p)
	s.err = err
	return n, err
}

func (s *omSink) close() error {
	if s.f != nil {
		if err := s.f.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

func runReport(seed uint64, outDir string) error {
	rep := experiment.BuildReport(seed)
	return writeCSV(outDir, "REPORT.md", func(f *os.File) error {
		return rep.WriteMarkdown(f)
	})
}

// parseScaleSweep expands the scale flags into the run configurations of
// the sweep, clients ascending × modes in flag order.
func parseScaleSweep(seed uint64) ([]experiment.ScaleConfig, error) {
	var clients []int
	for _, tok := range strings.Split(*scaleClients, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -scale-clients entry %q", tok)
		}
		clients = append(clients, n)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("-scale-clients is empty")
	}
	sort.Ints(clients)
	var modes []scaling.Mode
	for _, tok := range strings.Split(*scaleModes, ",") {
		if strings.TrimSpace(tok) == "" {
			continue
		}
		m, err := scaling.ParseMode(tok)
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	if len(modes) == 0 {
		return nil, fmt.Errorf("-scale-modes is empty")
	}
	if *scaleCells <= 0 {
		return nil, fmt.Errorf("-scale-cells must be positive")
	}
	if *scaleDuration <= 0 {
		return nil, fmt.Errorf("-scale-duration must be positive")
	}
	// A worker count of 0 means "auto": GOMAXPROCS inside RunScale. Explicit counts repeat every sweep point, innermost, so a
	// scaling curve reads as consecutive rows of the same cell.
	workerCounts := []int{0}
	if s := strings.TrimSpace(*scaleWorkers); s != "" {
		workerCounts = nil
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			n, err := strconv.Atoi(tok)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad -scale-workers entry %q", tok)
			}
			workerCounts = append(workerCounts, n)
		}
		if len(workerCounts) == 0 {
			return nil, fmt.Errorf("-scale-workers is empty")
		}
	}
	var cfgs []experiment.ScaleConfig
	for _, n := range clients {
		for _, m := range modes {
			for _, w := range workerCounts {
				cfg := experiment.DefaultScaleConfig(m, n)
				cfg.Seed = seed
				cfg.Cells = *scaleCells
				cfg.Duration = des.Time(*scaleDuration) * des.Second
				cfg.Workers = w
				cfg.Telemetry = true
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// runScale executes the {clients} × {modes} × {workers} sweep, prints
// the summary table, and writes scale_summary.csv, BENCH_7.json (schema
// conscale-bench/7, scale section), and the largest ConScale run's
// client timeline.
func runScale(seed uint64, outDir string) error {
	cfgs, err := parseScaleSweep(seed)
	if err != nil {
		return err
	}
	rows := make([]experiment.ScaleRow, 0, len(cfgs))
	var biggest *experiment.ScaleResult
	for _, cfg := range cfgs {
		workers := "auto"
		if cfg.Workers > 0 {
			workers = strconv.Itoa(cfg.Workers)
		}
		fmt.Printf("   %s × %d clients (%d cells, %.0fs, workers=%s)...\n",
			cfg.Mode, cfg.Clients, cfg.Cells, float64(cfg.Duration), workers)
		res := experiment.RunScale(cfg)
		fmt.Printf("     wall=%.1fs events=%d (%.2fM ev/s) heap=%.1fMB p99=%.0fms err=%.4f\n",
			res.WallSec, res.Events, res.EventsPerSec/1e6,
			float64(res.PeakHeapBytes)/(1<<20), res.P99*1000, res.ErrorRate)
		rows = append(rows, res.Row())
		if cfg.Mode == scaling.ConScale && (biggest == nil || res.Clients > biggest.Clients) {
			biggest = res
		}
	}
	fmt.Println()
	experiment.RenderScale(os.Stdout, rows)

	if err := writeCSV(outDir, "scale_summary.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "mode,clients,cells,workers,duration_s,wall_s,events,events_per_s,peak_heap_mb,requests,goodput,error_rate,p50_ms,p95_ms,p99_ms,vms,scale_actions"); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(f, "%s,%d,%d,%d,%.0f,%.2f,%d,%.0f,%.1f,%d,%d,%.4f,%.1f,%.1f,%.1f,%d,%d\n",
				r.Mode, r.Clients, r.Cells, r.Workers, r.DurationSec, r.WallSec, r.Events,
				r.EventsPerSec, r.PeakHeapMB, r.Requests, r.Goodput, r.ErrorRate,
				r.P50Ms, r.P95Ms, r.P99Ms, r.VMs, r.ScaleActions); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if biggest != nil {
		if err := writeCSV(outDir, fmt.Sprintf("scale_timeline_conscale_%d.csv", biggest.Clients), func(f *os.File) error {
			experiment.WriteScaleTimelineCSV(f, biggest)
			return nil
		}); err != nil {
			return err
		}
	}
	return writeCSV(outDir, "BENCH_7.json", func(f *os.File) error {
		return experiment.WriteScaleReport(f, rows)
	})
}

// parseTournament expands the tournament flags into the factorial
// configuration, validating controller and trace names up front so a
// typo fails before hours of simulation.
func parseTournament(seed uint64) (experiment.TournamentConfig, error) {
	cfg := experiment.DefaultTournamentConfig()
	cfg.Seed = seed
	if s := strings.TrimSpace(*tournControllers); s != "" {
		cfg.Controllers = nil
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(strings.ToLower(tok))
			if tok == "" {
				continue
			}
			if _, err := scaling.Canonical(tok); err != nil {
				return cfg, err
			}
			cfg.Controllers = append(cfg.Controllers, tok)
		}
		if len(cfg.Controllers) == 0 {
			return cfg, fmt.Errorf("-tournament-controllers is empty")
		}
	}
	if s := strings.TrimSpace(*tournTraces); s != "" {
		cfg.Traces = nil
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(strings.ToLower(tok))
			if tok == "" {
				continue
			}
			known := false
			for _, n := range workload.Names() {
				if tok == n {
					known = true
					break
				}
			}
			if !known {
				return cfg, fmt.Errorf("unknown trace %q; available: %s",
					tok, strings.Join(workload.Names(), ", "))
			}
			cfg.Traces = append(cfg.Traces, tok)
		}
		if len(cfg.Traces) == 0 {
			return cfg, fmt.Errorf("-tournament-traces is empty")
		}
	}
	if s := strings.TrimSpace(*tournTiers); s != "" {
		cfg.Tiers = nil
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			n, err := strconv.Atoi(tok)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("bad -tournament-tiers entry %q", tok)
			}
			cfg.Tiers = append(cfg.Tiers, n)
		}
		sort.Ints(cfg.Tiers)
	}
	if len(cfg.Tiers) == 0 {
		return cfg, fmt.Errorf("-tournament-tiers is empty")
	}
	if *tournDuration <= 0 {
		return cfg, fmt.Errorf("-tournament-duration must be positive")
	}
	cfg.Duration = des.Time(*tournDuration) * des.Second
	return cfg, nil
}

// runTournament executes the factorial, prints the ranked standings, and
// writes tournament_summary.csv plus BENCH_6.json (schema
// conscale-bench/6, tournament section).
func runTournament(seed uint64, outDir string) error {
	cfg, err := parseTournament(seed)
	if err != nil {
		return err
	}
	fmt.Printf("   %d controllers × %d traces × %d tiers = %d cells (%.0fs each)\n",
		len(cfg.Controllers), len(cfg.Traces), len(cfg.Tiers),
		len(cfg.Controllers)*len(cfg.Traces)*len(cfg.Tiers), float64(cfg.Duration))
	res := experiment.RunTournament(cfg)
	experiment.RenderTournament(os.Stdout, res)

	if err := writeCSV(outDir, "tournament_summary.csv", func(f *os.File) error {
		experiment.WriteTournamentCSV(f, res)
		return nil
	}); err != nil {
		return err
	}
	return writeCSV(outDir, "BENCH_6.json", func(f *os.File) error {
		return experiment.WriteTournamentReport(f, res)
	})
}

// parseFrontier expands the frontier flags into the factorial
// configuration, validating controller names, trace names, and
// admission policy specs up front so a typo fails before hours of
// simulation.
func parseFrontier(seed uint64) (experiment.FrontierConfig, error) {
	cfg := experiment.DefaultFrontierConfig()
	cfg.Seed = seed
	if s := strings.TrimSpace(*frControllers); s != "" {
		cfg.Controllers = nil
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(strings.ToLower(tok))
			if tok == "" {
				continue
			}
			if _, err := scaling.Canonical(tok); err != nil {
				return cfg, err
			}
			cfg.Controllers = append(cfg.Controllers, tok)
		}
		if len(cfg.Controllers) == 0 {
			return cfg, fmt.Errorf("-frontier-controllers is empty")
		}
	}
	if s := strings.TrimSpace(*frPolicies); s != "" {
		cfg.Policies = nil
		hasAlways := false
		for _, tok := range strings.Split(s, ";") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			acfg, err := admission.Parse(tok)
			if err != nil {
				return cfg, err
			}
			if _, err := admission.New(acfg); err != nil {
				return cfg, err
			}
			if acfg.Policy == admission.Always {
				hasAlways = true
			}
			cfg.Policies = append(cfg.Policies, tok)
		}
		if len(cfg.Policies) == 0 {
			return cfg, fmt.Errorf("-frontier-policies is empty")
		}
		if !hasAlways {
			return cfg, fmt.Errorf("-frontier-policies must include %q (the baseline of the delta columns)", admission.Always)
		}
	}
	if s := strings.TrimSpace(*frTraces); s != "" {
		cfg.Traces = nil
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(strings.ToLower(tok))
			if tok == "" {
				continue
			}
			known := false
			for _, n := range workload.Names() {
				if tok == n {
					known = true
					break
				}
			}
			if !known {
				return cfg, fmt.Errorf("unknown trace %q; available: %s",
					tok, strings.Join(workload.Names(), ", "))
			}
			cfg.Traces = append(cfg.Traces, tok)
		}
		if len(cfg.Traces) == 0 {
			return cfg, fmt.Errorf("-frontier-traces is empty")
		}
	}
	if *frClients < 0 {
		return cfg, fmt.Errorf("-frontier-clients must be positive")
	}
	if *frClients > 0 {
		cfg.Clients = *frClients
	}
	if *frDuration < 0 {
		return cfg, fmt.Errorf("-frontier-duration must be positive")
	}
	if *frDuration > 0 {
		cfg.Duration = des.Time(*frDuration) * des.Second
	}
	if *frThink < 0 {
		return cfg, fmt.Errorf("-frontier-think must be positive")
	}
	cfg.ThinkTime = *frThink
	return cfg, nil
}

// runFrontier executes the admission factorial, prints the per-cell
// frontier table, and writes frontier_summary.csv plus BENCH_10.json
// (schema conscale-bench/10, frontier section).
func runFrontier(seed uint64, outDir string) error {
	cfg, err := parseFrontier(seed)
	if err != nil {
		return err
	}
	fmt.Printf("   %d policies × %d controllers × %d traces = %d runs (%d clients, %.0fs each)\n",
		len(cfg.Policies), len(cfg.Controllers), len(cfg.Traces),
		len(cfg.Policies)*len(cfg.Controllers)*len(cfg.Traces),
		cfg.Clients, float64(cfg.Duration))
	cfg.Progress = func(done, total int, row experiment.FrontierRow) {
		fmt.Printf("   [%3d/%3d] %-16s %-20s %-10s p99=%.0fms goodput=%d sheds=%d wall=%.1fs\n",
			done, total, row.Trace, row.Controller, row.Policy,
			row.P99Ms, row.Goodput, row.Sheds, row.WallSec)
	}
	res := experiment.RunFrontier(cfg)
	fmt.Println()
	experiment.RenderFrontier(os.Stdout, res)
	if best, ok := res.BestTailCut(10); ok {
		fmt.Printf("\n   best tail cut within 10%% goodput loss: %s/%s/%s Δp99=%.1f%% Δgoodput=%.2f%%\n",
			best.Trace, best.Controller, best.Policy, best.P99DeltaPct, best.GoodputDeltaPct)
	}

	if err := writeCSV(outDir, "frontier_summary.csv", func(f *os.File) error {
		experiment.WriteFrontierCSV(f, res)
		return nil
	}); err != nil {
		return err
	}
	return writeCSV(outDir, "BENCH_10.json", func(f *os.File) error {
		return experiment.WriteFrontierReport(f, res)
	})
}

func parseEpisodes(seed uint64) (experiment.EpisodesConfig, error) {
	cfg := experiment.DefaultEpisodesConfig()
	cfg.Seed = seed
	cfg.Chaos = *epChaos
	if s := strings.TrimSpace(*epControllers); s != "" {
		cfg.Controllers = nil
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(strings.ToLower(tok))
			if tok == "" {
				continue
			}
			if _, err := scaling.Canonical(tok); err != nil {
				return cfg, err
			}
			cfg.Controllers = append(cfg.Controllers, tok)
		}
		if len(cfg.Controllers) == 0 {
			return cfg, fmt.Errorf("-episodes-controllers is empty")
		}
	}
	if s := strings.TrimSpace(*epTraces); s != "" {
		cfg.Traces = nil
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(strings.ToLower(tok))
			if tok == "" {
				continue
			}
			known := false
			for _, n := range workload.Names() {
				if tok == n {
					known = true
					break
				}
			}
			if !known {
				return cfg, fmt.Errorf("unknown trace %q; available: %s",
					tok, strings.Join(workload.Names(), ", "))
			}
			cfg.Traces = append(cfg.Traces, tok)
		}
		if len(cfg.Traces) == 0 {
			return cfg, fmt.Errorf("-episodes-traces is empty")
		}
	}
	if *epUsers < 0 {
		return cfg, fmt.Errorf("-episodes-users must be positive")
	}
	if *epUsers > 0 {
		cfg.Users = *epUsers
	}
	if *epDuration < 0 {
		return cfg, fmt.Errorf("-episodes-duration must be positive")
	}
	if *epDuration > 0 {
		cfg.Duration = des.Time(*epDuration) * des.Second
	}
	return cfg, nil
}

// runEpisodes executes the forensics matrix, prints the per-cell table,
// the controller ranking, and the headline-trace ASCII episode reports,
// and writes per-cell attribution JSON plus a combined Perfetto document
// carrying the episode annotation track.
func runEpisodes(seed uint64, outDir string) error {
	cfg, err := parseEpisodes(seed)
	if err != nil {
		return err
	}
	fmt.Printf("   %d controllers × %d traces = %d cells (%.0fs each, chaos=%v)\n",
		len(cfg.Controllers), len(cfg.Traces),
		len(cfg.Controllers)*len(cfg.Traces), float64(cfg.Duration), cfg.Chaos)
	cells := experiment.RunEpisodes(cfg)
	experiment.RenderEpisodes(os.Stdout, cells)
	fmt.Println()
	experiment.RenderEpisodeRanking(os.Stdout, experiment.RankEpisodes(cells))

	if err := writeCSV(outDir, "episodes_summary.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "trace,controller,episodes,total_dur_s,mean_depth_ms,max_depth_ms,area_over_slo,fault_overlapped,fault_attributed,fault_top,fault_top_correct"); err != nil {
			return err
		}
		for _, c := range cells {
			if _, err := fmt.Fprintf(f, "%s,%s,%d,%.1f,%.1f,%.1f,%.3f,%d,%d,%d,%d\n",
				c.Trace, c.Controller, c.Episodes, c.TotalDurS, c.MeanDepthMs,
				c.MaxDepthMs, c.Area, c.FaultOverlapped, c.FaultAttributed,
				c.FaultTop, c.FaultTopCorrect); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeCSV(outDir, "episodes_attribution.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "trace,controller,episode,onset_s,onset_hms,recovery_s,duration_s,depth_ms,area_over_slo,top_cause,top_score,top_at_s,top_detail"); err != nil {
			return err
		}
		for _, c := range cells {
			if c.Report == nil {
				continue
			}
			for i, er := range c.Report.Episodes {
				ep := er.Episode
				top := er.TopCause()
				if _, err := fmt.Fprintf(f, "%s,%s,%d,%.3f,%s,%.3f,%.3f,%.1f,%.3f,%s,%.2f,%.3f,%s\n",
					c.Trace, c.Controller, i+1, float64(ep.Onset),
					trace.FormatSimTime(ep.Onset), float64(ep.Recovery),
					float64(ep.Duration()), ep.Depth*1000, ep.AreaOverSLO,
					top.Kind, top.Score, float64(top.At),
					strings.ReplaceAll(top.Detail, ",", ";")); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Per-cell JSON reports; ASCII timelines for the headline trace only
	// (every cell's ASCII would drown the summary tables).
	var perfetto *trace.ChromeTrace
	for _, c := range cells {
		if c.Report == nil {
			continue
		}
		name := "episode_report_" + sanitize(c.Trace) + "_" + sanitize(c.Controller) + ".json"
		if err := writeCSV(outDir, name, func(f *os.File) error {
			return forensics.WriteJSON(f, c.Report)
		}); err != nil {
			return err
		}
		if c.Trace == workload.BigSpike && c.Episodes > 0 {
			fmt.Printf("\n   episode reports, %s / %s:\n", c.Trace, c.Controller)
			if err := forensics.WriteASCII(os.Stdout, c.Report); err != nil {
				return err
			}
			if perfetto == nil && c.Res.Tracer != nil {
				doc := trace.BuildChromeTrace(c.Res.Tracer.Slowest(), c.Res.Audit)
				forensics.AppendChrome(&doc, c.Report)
				perfetto = &doc
			}
		}
	}
	if perfetto != nil {
		if err := writeCSV(outDir, "episodes_perfetto.json", func(f *os.File) error {
			enc := json.NewEncoder(f)
			return enc.Encode(perfetto)
		}); err != nil {
			return err
		}
	}
	return nil
}

// parseHypothesis expands the hypothesis flags, validating ids and
// trace names up front.
func parseHypothesis(seed uint64) (experiment.HypothesisConfig, error) {
	cfg := experiment.HypothesisConfig{BaseSeed: seed}
	if s := strings.TrimSpace(*hypoIDs); s != "" {
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(strings.ToLower(tok))
			if tok == "" {
				continue
			}
			known := false
			for _, id := range experiment.HypothesisIDs() {
				if tok == id {
					known = true
					break
				}
			}
			if !known {
				return cfg, fmt.Errorf("unknown hypothesis %q; available: %s",
					tok, strings.Join(experiment.HypothesisIDs(), ", "))
			}
			cfg.IDs = append(cfg.IDs, tok)
		}
	}
	if *hypoSeeds < 0 {
		return cfg, fmt.Errorf("-hypothesis-seeds must be positive")
	}
	cfg.Seeds = *hypoSeeds
	if *hypoDuration < 0 {
		return cfg, fmt.Errorf("-hypothesis-duration must be positive")
	}
	cfg.Duration = des.Time(*hypoDuration) * des.Second
	if *hypoUsers < 0 {
		return cfg, fmt.Errorf("-hypothesis-users must be positive")
	}
	cfg.Users = *hypoUsers
	if s := strings.TrimSpace(*hypoTraces); s != "" {
		for _, tok := range strings.Split(s, ",") {
			tok = strings.TrimSpace(strings.ToLower(tok))
			if tok == "" {
				continue
			}
			known := false
			for _, n := range workload.Names() {
				if tok == n {
					known = true
					break
				}
			}
			if !known {
				return cfg, fmt.Errorf("unknown trace %q; available: %s",
					tok, strings.Join(workload.Names(), ", "))
			}
			cfg.Traces = append(cfg.Traces, tok)
		}
	}
	return cfg, nil
}

// runHypothesis executes the declared hypotheses, prints the FINDINGS
// table, writes results/hypothesis_<id>.csv + hypothesis_summary.csv
// plus a twin showcase (sample CSV and Perfetto annotation track from
// one fully-armed steady run), and fails the process when a CI-gated
// hypothesis does not come back SUPPORTED.
func runHypothesis(seed uint64, outDir string) error {
	cfg, err := parseHypothesis(seed)
	if err != nil {
		return err
	}
	results, err := experiment.RunHypotheses(cfg)
	if err != nil {
		return err
	}
	if err := experiment.RenderHypotheses(os.Stdout, results); err != nil {
		return err
	}
	for i := range results {
		r := &results[i]
		if err := writeCSV(outDir, "hypothesis_"+sanitize(r.ID)+".csv", func(f *os.File) error {
			return experiment.WriteHypothesisCSV(f, r)
		}); err != nil {
			return err
		}
	}
	if err := writeCSV(outDir, "hypothesis_summary.csv", func(f *os.File) error {
		return experiment.WriteHypothesisSummaryCSV(f, results)
	}); err != nil {
		return err
	}

	// Twin showcase: one fully-armed steady run for the sample timeline
	// and the Perfetto "twin" annotation track.
	rc := experiment.DefaultRunConfig(scaling.EC2, workload.Constant)
	rc.MaxUsers = 2500
	rc.Duration = 300 * des.Second
	rc.Seed = seed
	rc.Tracing = &trace.Config{}
	rc.Forensics = &forensics.Config{}
	rc.Twin = &twin.Config{}
	res := experiment.Run(rc)
	if err := writeCSV(outDir, "hypothesis_twin_timeline.csv", func(f *os.File) error {
		return experiment.WriteTwinCSV(f, res)
	}); err != nil {
		return err
	}
	if err := writeCSV(outDir, "hypothesis_twin_perfetto.json", func(f *os.File) error {
		doc := trace.BuildChromeTrace(res.Tracer.Slowest(), res.Audit)
		twin.AppendChrome(&doc, res.Twin.Samples(), res.Twin.Drifts())
		enc := json.NewEncoder(f)
		return enc.Encode(&doc)
	}); err != nil {
		return err
	}

	if fails := experiment.GatedFailures(results); len(fails) != 0 {
		return fmt.Errorf("gated hypothesis failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}
