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
	"errors"
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
	// check validates the runner's flags without running (nil: it has
	// none); -check calls every one.
	check func(seed uint64) error
}

var runners = []runner{
	{"fig1", "EC2-AutoScaling RT fluctuations under the Large Variations trace", runFig1, nil},
	{"fig3", "Tomcat concurrency sweeps: 1-core / 2-core / enlarged dataset", runFig3, nil},
	{"fig5", "MySQL fine-grained 50 ms series during the 1/1/1 -> 1/2/1 scaling", runFig5, nil},
	{"fig6", "MySQL scatter correlation and rational concurrency range", runFig6, nil},
	{"fig7", "Optimal-concurrency shifts: cores, dataset size, workload type", runFig7, nil},
	{"fig9", "The six bursty workload traces", runFig9, nil},
	{"fig10", "EC2-AutoScaling vs ConScale full timelines", runFig10, nil},
	{"table1", "Tail latencies, EC2 vs ConScale, all six traces", runTable1, nil},
	{"fig11", "DCM (stale profile) vs ConScale after a system-state change", runFig11, nil},
	{"ablations", "A1–A7: SCT window, Qupper, LB policy, cooldown, vertical DB, cache tier, SLA trigger", runAblations, nil},
	{"chaos", "Controller robustness under injected cloud faults", runChaos, nil},
	{"blame", "Latency-blame attribution: traced EC2 vs DCM vs ConScale", runBlame, nil},
	{"slo", "SLO burn-rate detection lead time: EC2 vs DCM vs ConScale", runSLO, nil},
	{"report", "All-in-one reproduction report (Table I + Fig. 3 + Fig. 11)", runReport, nil},
	{"scale", "Million-client scale mode: streaming population over striped cells", runScale, checks(parseScaleSweep)},
	{"tournament", "Full-factorial controller tournament: every controller × trace × tier", runTournament, checks(parseTournament)},
	{"episodes", "Fluctuation forensics: episode detection + causal attribution per controller", runEpisodes, checks(parseEpisodes)},
	{"hypothesis", "Declared-hypothesis validation: DES≡MVA steady-state, calm-regime drift, blame conservation, SCT tail dominance", runHypothesis, checks(parseHypothesis)},
	{"frontier", "Admission frontier: admission policy × controller × trace on the p99-vs-goodput plane", runFrontier, checks(parseFrontier)},
}

// checks turns a runner's flag parser into its -check hook.
func checks[T any](parse func(seed uint64) (T, error)) func(seed uint64) error {
	return func(seed uint64) error {
		_, err := parse(seed)
		return err
	}
}

// heavyRunners are excluded from `-run all` and must be requested by id:
// the scale sweep's 1M-client tier, the tournament and frontier full
// factorials, and the hypothesis sweeps multiply the whole-suite wall
// time.
var heavyRunners = map[string]bool{"scale": true, "tournament": true, "episodes": true, "hypothesis": true, "frontier": true}

// selectRunners resolves a -run spec ("all" or a comma-separated id list)
// against the runner table, preserving table order and deduplicating.
// Unknown ids are an error that names every available id. "all" selects
// every runner except the heavy ones in heavyRunners, which must be
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

// Flags of the heavy runners, declared at package level so the runner
// functions can read them after flag.Parse. A 0 or empty value means
// the library default, which the matching experiment config documents
// (DefaultScaleConfig, DefaultTournamentConfig, DefaultEpisodesConfig,
// DefaultFrontierConfig, HypothesisConfig); -scale-clients and
// -scale-modes name the sweep itself and have no library default.
var (
	scaleClients  = flag.String("scale-clients", "10000,100000,1000000", "scale sweep: comma-separated peak client counts")
	scaleModes    = flag.String("scale-modes", "ec2,dcm,conscale", "scale sweep: comma-separated frameworks")
	scaleCells    = flag.Int("scale-cells", 0, "scale sweep: independent n-tier cells per run (0 = library default)")
	scaleDuration = flag.Float64("scale-duration", 0, "scale sweep: simulated seconds per run (0 = library default)")
	scaleWorkers  = flag.String("scale-workers", "", "scale sweep: comma-separated striper worker counts, repeating each sweep point per count (e.g. 1,2,4,8 records a scaling curve; empty = one auto-sized run)")

	tournControllers = flag.String("tournament-controllers", "", "tournament: comma-separated controller names (empty = library default)")
	tournTraces      = flag.String("tournament-traces", "", "tournament: comma-separated trace names (empty = library default)")
	tournTiers       = flag.String("tournament-tiers", "", "tournament: comma-separated peak client counts (empty = library default)")
	tournDuration    = flag.Float64("tournament-duration", 0, "tournament: simulated seconds per cell (0 = library default)")

	hypoIDs      = flag.String("hypothesis-ids", "", "hypothesis: comma-separated hypothesis ids (empty = library default)")
	hypoSeeds    = flag.Int("hypothesis-seeds", 0, "hypothesis: seeds per cell (0 = library default)")
	hypoDuration = flag.Float64("hypothesis-duration", 0, "hypothesis: steady-cell simulated seconds (0 = library default)")
	hypoUsers    = flag.Int("hypothesis-users", 0, "hypothesis: trace-sweep peak client population (0 = library default)")
	hypoTraces   = flag.String("hypothesis-traces", "", "hypothesis: comma-separated sweep traces (empty = library default)")

	epControllers = flag.String("episodes-controllers", "", "episodes: comma-separated controller names (empty = library default)")
	epTraces      = flag.String("episodes-traces", "", "episodes: comma-separated trace names (empty = library default)")
	epUsers       = flag.Int("episodes-users", 0, "episodes: peak client population per cell (0 = library default)")
	epDuration    = flag.Float64("episodes-duration", 0, "episodes: simulated seconds per cell (0 = library default)")
	epChaos       = flag.Bool("episodes-chaos", true, "episodes: arm the deterministic fault overlay (the attribution score's ground truth)")

	// Policy specs carry commas ("codel:target=250ms,interval=1s"), so
	// the policy list is semicolon-separated.
	frControllers = flag.String("frontier-controllers", "", "frontier: comma-separated controller names (empty = library default)")
	frPolicies    = flag.String("frontier-policies", "", "frontier: semicolon-separated admission policy specs, including always (empty = library default)")
	frTraces      = flag.String("frontier-traces", "", "frontier: comma-separated trace names (empty = library default)")
	frClients     = flag.Int("frontier-clients", 0, "frontier: peak client count per cell (0 = library default)")
	frDuration    = flag.Float64("frontier-duration", 0, "frontier: simulated seconds per run (0 = library default)")
	frThink       = flag.Float64("frontier-think", 0, "frontier: mean client think time in seconds (0 = library default)")
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
		_, err := selectRunners(*run)
		for _, r := range runners {
			if r.check != nil {
				err = errors.Join(err, r.check(*seed))
			}
		}
		if err != nil {
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
	return writeCompare(outDir, "fig10", "ec2", experiment.Fig10(seed))
}

func runFig11(seed uint64, outDir string) error {
	return writeCompare(outDir, "fig11", "dcm", experiment.Fig11(seed))
}

// writeCompare prints a baseline-vs-ConScale pair and writes both
// timelines as <fig>_<baseline>_timeline.csv and <fig>_conscale_timeline.csv.
func writeCompare(outDir, fig, baseline string, res experiment.CompareResult) error {
	experiment.RenderCompare(os.Stdout, res)
	if err := writeCSV(outDir, fig+"_"+baseline+"_timeline.csv", func(f *os.File) error {
		return experiment.WriteTimelineCSV(f, res.Baseline)
	}); err != nil {
		return err
	}
	return writeCSV(outDir, fig+"_conscale_timeline.csv", func(f *os.File) error {
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
	for _, study := range experiment.Ablations() {
		rows := study.Run(seed)
		experiment.RenderAblation(os.Stdout, study.Title, rows)
		if err := writeCSV(outDir, study.File, func(f *os.File) error {
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

// splitList splits a list flag on sep into trimmed entries. An empty
// flag is nil, the library default; one holding only separators is an
// error.
func splitList(name, s, sep string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, tok := range strings.Split(s, sep) {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s lists no entries", name)
	}
	return out, nil
}

// positiveInts parses a comma-separated list flag of positive integers,
// nil when the flag is empty.
func positiveInts(name, s string) ([]int, error) {
	toks, err := splitList(name, s, ",")
	if err != nil {
		return nil, err
	}
	var out []int
	for _, tok := range toks {
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -%s entry %q: want a positive integer", name, tok)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseScaleSweep expands the scale flags into the run configurations of
// the sweep: clients ascending × modes in flag order × worker counts
// innermost, so a scaling curve reads as consecutive rows of one cell.
func parseScaleSweep(seed uint64) ([]experiment.ScaleConfig, error) {
	clients, errClients := positiveInts("scale-clients", *scaleClients)
	modeNames, errModes := splitList("scale-modes", *scaleModes, ",")
	// Worker count 0 is one auto-sized run: GOMAXPROCS inside RunScale.
	workerCounts, errWorkers := positiveInts("scale-workers", *scaleWorkers)
	if err := errors.Join(errClients, errModes, errWorkers); err != nil {
		return nil, err
	}
	if len(clients) == 0 || len(modeNames) == 0 {
		return nil, fmt.Errorf("-scale-clients and -scale-modes must each list a value")
	}
	if *scaleCells < 0 || *scaleDuration < 0 {
		return nil, fmt.Errorf("-scale-cells and -scale-duration must not be negative")
	}
	if workerCounts == nil {
		workerCounts = []int{0}
	}
	sort.Ints(clients)
	modes := make([]scaling.Mode, len(modeNames))
	for i, name := range modeNames {
		m, err := scaling.ParseMode(name)
		if err != nil {
			return nil, err
		}
		modes[i] = m
	}
	var cfgs []experiment.ScaleConfig
	for _, n := range clients {
		for _, m := range modes {
			for _, w := range workerCounts {
				cfg := experiment.DefaultScaleConfig(m, n)
				cfg.Seed = seed
				if *scaleCells > 0 {
					cfg.Cells = *scaleCells
				}
				if *scaleDuration > 0 {
					cfg.Duration = des.Time(*scaleDuration) * des.Second
				}
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

// parseTournament reads the tournament flags into a validated config,
// defaults filled in, so a typo fails before hours of simulation.
func parseTournament(seed uint64) (experiment.TournamentConfig, error) {
	ctrls, errCtrls := splitList("tournament-controllers", strings.ToLower(*tournControllers), ",")
	traces, errTraces := splitList("tournament-traces", strings.ToLower(*tournTraces), ",")
	tiers, errTiers := positiveInts("tournament-tiers", *tournTiers)
	sort.Ints(tiers)
	cfg := experiment.TournamentConfig{
		Controllers: ctrls,
		Traces:      traces,
		Tiers:       tiers,
		Duration:    des.Time(*tournDuration) * des.Second,
		Seed:        seed,
	}
	return cfg.WithDefaults(), errors.Join(errCtrls, errTraces, errTiers, cfg.Validate())
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
	res, err := experiment.RunTournament(cfg)
	if err != nil {
		return err
	}
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

// parseFrontier reads the frontier flags into a validated config,
// defaults filled in.
func parseFrontier(seed uint64) (experiment.FrontierConfig, error) {
	ctrls, errCtrls := splitList("frontier-controllers", strings.ToLower(*frControllers), ",")
	policies, errPolicies := splitList("frontier-policies", *frPolicies, ";")
	traces, errTraces := splitList("frontier-traces", strings.ToLower(*frTraces), ",")
	cfg := experiment.FrontierConfig{
		Clients:     *frClients,
		Duration:    des.Time(*frDuration) * des.Second,
		Seed:        seed,
		Controllers: ctrls,
		Policies:    policies,
		Traces:      traces,
		ThinkTime:   *frThink,
	}
	return cfg.WithDefaults(), errors.Join(errCtrls, errPolicies, errTraces, cfg.Validate())
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
	res, err := experiment.RunFrontier(cfg)
	if err != nil {
		return err
	}
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

// parseEpisodes reads the episodes flags into a validated config,
// defaults filled in.
func parseEpisodes(seed uint64) (experiment.EpisodesConfig, error) {
	ctrls, errCtrls := splitList("episodes-controllers", strings.ToLower(*epControllers), ",")
	traces, errTraces := splitList("episodes-traces", strings.ToLower(*epTraces), ",")
	cfg := experiment.EpisodesConfig{
		Controllers: ctrls,
		Traces:      traces,
		Users:       *epUsers,
		Duration:    des.Time(*epDuration) * des.Second,
		Seed:        seed,
		Chaos:       *epChaos,
	}
	return cfg.WithDefaults(), errors.Join(errCtrls, errTraces, cfg.Validate())
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
	cells, err := experiment.RunEpisodes(cfg)
	if err != nil {
		return err
	}
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

// parseHypothesis reads the hypothesis flags into a validated config;
// zero fields stay for RunHypotheses to default.
func parseHypothesis(seed uint64) (experiment.HypothesisConfig, error) {
	ids, errIDs := splitList("hypothesis-ids", strings.ToLower(*hypoIDs), ",")
	traces, errTraces := splitList("hypothesis-traces", strings.ToLower(*hypoTraces), ",")
	cfg := experiment.HypothesisConfig{
		IDs:      ids,
		Seeds:    *hypoSeeds,
		BaseSeed: seed,
		Duration: des.Time(*hypoDuration) * des.Second,
		Users:    *hypoUsers,
		Traces:   traces,
	}
	return cfg, errors.Join(errIDs, errTraces, cfg.Validate())
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
