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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"conscale/internal/experiment"
	"conscale/internal/scaling"
)

// A runner is one -run id. It prints its summary and writes its
// artifacts as each stage finishes, so a later failure keeps what is
// done.
type runner struct {
	name, desc string
	// prepare checks the runner's inputs and returns its job. Preparing
	// runs nothing (for a study runner it builds the studies), so every
	// picked runner is prepared before the first job starts, and -check
	// prepares them all.
	prepare func(seed uint64) (job func() error, err error)
}

var runners = []runner{
	{"fig1", "EC2-AutoScaling RT fluctuations under the Large Variations trace", study(experiment.Fig1Study)},
	{"fig3", "Tomcat concurrency sweeps: 1-core / 2-core / enlarged dataset", outcome(experiment.Fig3Outcome)},
	{"fig5", "MySQL fine-grained 50 ms series during the 1/1/1 -> 1/2/1 scaling", study(experiment.Fig5Study)},
	{"fig6", "MySQL scatter correlation and rational concurrency range", study(experiment.Fig6Study)},
	{"fig7", "Optimal-concurrency shifts: cores, dataset size, workload type", outcome(experiment.Fig7Outcome)},
	{"fig9", "The six bursty workload traces", outcome(func(uint64) experiment.Outcome { return experiment.Fig9Outcome() })},
	{"fig10", "EC2-AutoScaling vs ConScale full timelines", study(experiment.Fig10Study)},
	{"table1", "Tail latencies, EC2 vs ConScale, all six traces", study(experiment.Table1Study)},
	{"fig11", "DCM (stale profile) vs ConScale after a system-state change", study(experiment.Fig11Study)},
	{"ablations", "A1–A7: SCT window, Qupper, LB policy, cooldown, vertical DB, cache tier, SLA trigger",
		func(seed uint64) (func() error, error) { return runStudies(experiment.Ablations(seed)...), nil }},
	{"chaos", "Controller robustness under injected cloud faults", study(experiment.ChaosStudy)},
	{"blame", "Latency-blame attribution: traced EC2 vs DCM vs ConScale", study(experiment.BlameStudy)},
	{"slo", "SLO burn-rate detection lead time: EC2 vs DCM vs ConScale", study(experiment.SLOStudy)},
	{"report", "All-in-one reproduction report (Table I + Fig. 3 + Fig. 11)", outcome(experiment.ReportOutcome)},
	{"scale", "Million-client scale mode: streaming population over striped cells",
		func(uint64) (func() error, error) {
			cfgs, err := scaleSweep()
			return func() error { return runScale(cfgs) }, err
		}},
	{"tournament", "Full-factorial controller tournament: every controller × trace × tier",
		func(uint64) (func() error, error) { return checked(experiment.TournamentStudy(tournament)) }},
	{"episodes", "Fluctuation forensics: episode detection + causal attribution per controller",
		func(uint64) (func() error, error) { return checked(experiment.EpisodesStudy(episodes)) }},
	// The twin showcase goes first, so a gated hypothesis that fails
	// exits once both have written their files.
	{"hypothesis", "Declared-hypothesis validation: DES≡MVA steady-state, calm-regime drift, blame conservation, SCT tail dominance",
		func(seed uint64) (func() error, error) {
			s, err := experiment.HypothesisStudy(hypothesis)
			return runStudies(experiment.TwinStudy(seed), s), err
		}},
	{"frontier", "Admission frontier: admission policy × controller × trace on the p99-vs-goodput plane",
		func(uint64) (func() error, error) { return runFrontier, frontier.Validate() }},
}

// study prepares a runner that is one study.
func study(build func(seed uint64) experiment.Study) func(uint64) (func() error, error) {
	return func(seed uint64) (func() error, error) { return runStudies(build(seed)), nil }
}

// checked prepares a runner that is one study whose build checks its
// config.
func checked(s experiment.Study, err error) (func() error, error) { return runStudies(s), err }

// outcome prepares a runner that is not a study.
func outcome(run func(seed uint64) experiment.Outcome) func(uint64) (func() error, error) {
	return func(seed uint64) (func() error, error) { return func() error { return finish(run(seed)) }, nil }
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
	all := strings.TrimSpace(strings.ToLower(spec)) == "all"
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		if id = strings.TrimSpace(strings.ToLower(id)); id != "" && !all {
			want[id] = true
		}
	}
	var picked []runner
	ids := "all"
	for _, r := range runners {
		if want[r.name] || all && !heavyRunners[r.name] {
			picked = append(picked, r)
		}
		delete(want, r.name)
		ids += ", " + r.name
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment id(s) %s; available: %s", strings.Join(unknown, ", "), ids)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q; available: %s", spec, ids)
	}
	return picked, nil
}

// The heavy runners' flags write straight into these configs: a 0 or
// empty value leaves a field zero, the library default, and durations
// bind as seconds (des.Second == 1). -seed binds through seedConfigs.
// -scale-clients and -scale-modes name the sweep itself and have no
// library default.
var (
	tournament experiment.TournamentConfig
	episodes   experiment.EpisodesConfig
	frontier   experiment.FrontierConfig
	hypothesis experiment.HypothesisConfig

	// scale holds the Seed, Cells and Duration every scale sweep point
	// shares.
	scale        experiment.ScaleConfig
	scaleClients = []int{10000, 100000, 1000000}
	scaleModes   = []string{"ec2", "dcm", "conscale"}
	scaleWorkers []int

	out = flag.String("out", "results", "output directory for CSV datasets")
)

func init() {
	flag.Var(&listFlag{sep: ",", ints: &scaleClients}, "scale-clients", "scale sweep: comma-separated peak client counts")
	flag.Var(&listFlag{sep: ",", strs: &scaleModes}, "scale-modes", "scale sweep: comma-separated frameworks")
	flag.IntVar(&scale.Cells, "scale-cells", 0, "scale sweep: independent n-tier cells per run (0 = library default)")
	flag.Float64Var((*float64)(&scale.Duration), "scale-duration", 0, "scale sweep: simulated seconds per run (0 = library default)")
	flag.Var(&listFlag{sep: ",", ints: &scaleWorkers}, "scale-workers", "scale sweep: comma-separated striper worker counts, repeating each sweep point per count (e.g. 1,2,4,8 records a scaling curve; empty = one auto-sized run)")

	flag.Var(&listFlag{sep: ",", strs: &tournament.Controllers}, "tournament-controllers", "tournament: comma-separated controller names (empty = library default)")
	flag.Var(&listFlag{sep: ",", strs: &tournament.Traces}, "tournament-traces", "tournament: comma-separated trace names (empty = library default)")
	flag.Var(&listFlag{sep: ",", ints: &tournament.Tiers}, "tournament-tiers", "tournament: comma-separated peak client counts (empty = library default)")
	flag.Float64Var((*float64)(&tournament.Duration), "tournament-duration", 0, "tournament: simulated seconds per cell (0 = library default)")

	flag.Var(&listFlag{sep: ",", strs: &hypothesis.IDs}, "hypothesis-ids", "hypothesis: comma-separated hypothesis ids (empty = library default)")
	flag.IntVar(&hypothesis.Seeds, "hypothesis-seeds", 0, "hypothesis: seeds per cell (0 = library default)")
	flag.Float64Var((*float64)(&hypothesis.Duration), "hypothesis-duration", 0, "hypothesis: steady-cell simulated seconds (0 = library default)")
	flag.IntVar(&hypothesis.Users, "hypothesis-users", 0, "hypothesis: trace-sweep peak client population (0 = library default)")
	flag.Var(&listFlag{sep: ",", strs: &hypothesis.Traces}, "hypothesis-traces", "hypothesis: comma-separated sweep traces (empty = library default)")

	flag.Var(&listFlag{sep: ",", strs: &episodes.Controllers}, "episodes-controllers", "episodes: comma-separated controller names (empty = library default)")
	flag.Var(&listFlag{sep: ",", strs: &episodes.Traces}, "episodes-traces", "episodes: comma-separated trace names (empty = library default)")
	flag.IntVar(&episodes.Users, "episodes-users", 0, "episodes: peak client population per cell (0 = library default)")
	flag.Float64Var((*float64)(&episodes.Duration), "episodes-duration", 0, "episodes: simulated seconds per cell (0 = library default)")
	flag.BoolVar(&episodes.Chaos, "episodes-chaos", true, "episodes: arm the deterministic fault overlay (the attribution score's ground truth)")

	// Policy specs carry commas ("codel:target=250ms,interval=1s"), so
	// the policy list is semicolon-separated.
	flag.Var(&listFlag{sep: ",", strs: &frontier.Controllers}, "frontier-controllers", "frontier: comma-separated controller names (empty = library default)")
	flag.Var(&listFlag{sep: ";", strs: &frontier.Policies}, "frontier-policies", "frontier: semicolon-separated admission policy specs, including always (empty = library default)")
	flag.Var(&listFlag{sep: ",", strs: &frontier.Traces}, "frontier-traces", "frontier: comma-separated trace names (empty = library default)")
	flag.IntVar(&frontier.Clients, "frontier-clients", 0, "frontier: peak client count per cell (0 = library default)")
	flag.Float64Var((*float64)(&frontier.Duration), "frontier-duration", 0, "frontier: simulated seconds per run (0 = library default)")
	flag.Float64Var(&frontier.ThinkTime, "frontier-think", 0, "frontier: mean client think time in seconds (0 = library default)")
}

// listFlag is a list flag bound to a config field: its entries, split on
// sep and trimmed, replace the field. An empty value leaves the field
// nil, the library default, and one holding only separators is an
// error. With ints set the entries must be positive integers; otherwise
// they are names and lower-cased, except in a ";" list, whose admission
// specs keep their case.
type listFlag struct {
	sep  string
	strs *[]string
	ints *[]int
}

func (l *listFlag) String() string {
	var s []string
	if l.strs != nil {
		s = *l.strs
	}
	if l.ints != nil {
		for _, n := range *l.ints {
			s = append(s, strconv.Itoa(n))
		}
	}
	return strings.Join(s, l.sep)
}

func (l *listFlag) Set(v string) error {
	var strs []string
	var ints []int
	for _, tok := range strings.Split(v, l.sep) {
		switch tok = strings.TrimSpace(tok); {
		case tok == "":
		case l.ints != nil:
			n, err := strconv.Atoi(tok)
			if err != nil || n <= 0 {
				return fmt.Errorf("bad entry %q: want a positive integer", tok)
			}
			ints = append(ints, n)
		case l.sep == ";":
			strs = append(strs, tok)
		default:
			strs = append(strs, strings.ToLower(tok))
		}
	}
	if strs == nil && ints == nil && strings.TrimSpace(v) != "" {
		return errors.New("lists no entries")
	}
	if l.ints != nil {
		*l.ints = ints
	} else {
		*l.strs = strs
	}
	return nil
}

func main() {
	var (
		run        = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		list       = flag.Bool("list", false, "list available experiments and exit")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker fan-out for independent runs (1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		check      = flag.Bool("check", false, "validate flags and -run ids, then exit without running (doc-drift guard)")
	)
	flag.Parse()
	seedConfigs(*seed)

	picked, err := selectRunners(*run)
	if *list && !*check {
		for _, r := range runners {
			fmt.Printf("%-10s %s\n", r.name, r.desc)
		}
		return
	}
	// Every picked runner (all of them under -check) is prepared, and
	// so checked, before the first job starts.
	if *check {
		picked = runners
	}
	jobs := make([]func() error, len(picked))
	for i, r := range picked {
		var e error
		jobs[i], e = r.prepare(*seed)
		err = errors.Join(err, e)
	}
	exitOn(err, 2)
	if *check {
		fmt.Println("ok")
		return
	}

	exitOn(os.MkdirAll(*out, 0o755), 1)
	experiment.SetMaxWorkers(*parallel)
	var prof *file
	if *cpuprofile != "" {
		prof = create(*cpuprofile)
		exitOn(prof.Err, 1)
		exitOn(pprof.StartCPUProfile(prof), 1)
	}
	err = runAll(picked, jobs)
	if prof != nil {
		pprof.StopCPUProfile()
		err = errors.Join(err, prof.close())
	}
	if err == nil && *memprofile != "" {
		err = writeFile(*memprofile, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		})
	}
	exitOn(err, 1)
}

// seedConfigs sets the seed of every flag-bound config.
func seedConfigs(seed uint64) {
	scale.Seed, tournament.Seed, episodes.Seed, frontier.Seed, hypothesis.BaseSeed = seed, seed, seed, seed, seed
}

// exitOn exits with code after printing err, if there is one.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

// runAll runs the picked runners' jobs in order and stops at the first
// failure.
func runAll(picked []runner, jobs []func() error) error {
	total := time.Now()
	for i, r := range picked {
		fmt.Printf("== %s: %s\n", r.name, r.desc)
		start := time.Now()
		if err := jobs[i](); err != nil {
			return fmt.Errorf("%s failed: %w", r.name, err)
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
	}
	fmt.Printf("total: %d experiments in %.1fs (workers=%d)\n",
		len(picked), time.Since(total).Seconds(), experiment.MaxWorkers())
	return nil
}

// file is an output file of the command. Its ErrWriter keeps the first
// error from creating, writing or closing the file, so a failed write is
// reported by close rather than lost.
type file struct {
	experiment.ErrWriter
	path string
	f    *os.File
}

// create is the only place the command creates a file.
func create(path string) *file {
	f, err := os.Create(path)
	return &file{experiment.ErrWriter{W: f, Err: err}, path, f}
}

// close closes the file and returns the first error it met, printing
// the path once the file is safely written.
func (f *file) close() error {
	if f.f != nil {
		if err := f.f.Close(); f.Err == nil {
			f.Err = err
		}
	}
	if f.Err == nil {
		fmt.Printf("   wrote %s\n", f.path)
	}
	return f.Err
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f := create(path)
	if err := write(f); err != nil && f.Err == nil {
		f.Err = fmt.Errorf("%s: %w", path, err)
	}
	return f.close()
}

// runStudies is the job that runs each study in turn, streaming its
// scrape timelines to their files under -out as the cells run, then
// finishes it.
func runStudies(studies ...experiment.Study) func() error {
	return func() error {
		for _, s := range studies {
			fmt.Printf("   cells: %d\n", len(s.Cells))
			var streams []*file
			results := s.Run(func(name string) io.Writer {
				streams = append(streams, create(filepath.Join(*out, name)))
				return streams[len(streams)-1]
			})
			var err error
			for _, f := range streams {
				err = errors.Join(err, f.close())
			}
			if err = errors.Join(err, finish(s.Fold(s.Cells, results))); err != nil {
				return err
			}
		}
		return nil
	}
}

// finish prints an outcome's summary, writes its artifacts under -out,
// stopping at the first failure, and returns the failure the outcome
// shows.
func finish(o experiment.Outcome) error {
	if o.Summary != nil {
		if err := o.Summary(os.Stdout); err != nil {
			return err
		}
	}
	for _, a := range o.Artifacts {
		if err := writeFile(filepath.Join(*out, a.Name), a.Write); err != nil {
			return err
		}
	}
	return o.Err
}

// scaleSweep expands the scale flags into the run configurations of the
// sweep: clients ascending × modes in flag order × worker counts
// innermost, so a scaling curve reads as consecutive rows of one cell.
func scaleSweep() ([]experiment.ScaleConfig, error) {
	if len(scaleClients) == 0 || len(scaleModes) == 0 {
		return nil, errors.New("-scale-clients and -scale-modes must each list a value")
	}
	// Worker count 0 is one auto-sized run: GOMAXPROCS inside RunScale.
	workers := scaleWorkers
	if workers == nil {
		workers = []int{0}
	}
	clients := slices.Clone(scaleClients)
	slices.Sort(clients)
	var cfgs []experiment.ScaleConfig
	for _, n := range clients {
		for _, name := range scaleModes {
			m, err := scaling.ParseMode(name)
			if err != nil {
				return nil, err
			}
			for _, w := range workers {
				cfg := experiment.DefaultScaleConfig(m, n)
				cfg.Cells = cmp.Or(scale.Cells, cfg.Cells)
				cfg.Duration = cmp.Or(scale.Duration, cfg.Duration)
				cfg.Seed = scale.Seed
				cfg.Workers = w
				cfg.Telemetry = true
				if err := cfg.Validate(); err != nil {
					return nil, err
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// runScale executes the {clients} × {modes} × {workers} sweep and prints
// the summary table; its artifacts carry the largest ConScale run's
// client timeline.
func runScale(cfgs []experiment.ScaleConfig) error {
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
	return finish(experiment.ScaleOutcome(rows, biggest))
}

// runFrontier executes the admission factorial and prints the per-cell
// frontier table.
func runFrontier() error {
	cfg := frontier.WithDefaults()
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
	return finish(experiment.FrontierOutcome(res))
}
