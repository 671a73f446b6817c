// Command bench is the repository's benchmark: requests simulated per
// wall-second and allocations per simulated request at the paper tier
// and the 1M-client tier, measured through the product's own entry
// points, with a per-layer ledger taken from outside the program.
//
//	go run ./bench                       all four workloads, 3 repetitions each
//	go run ./bench -trace                the per-layer pass (spans + probes)
//	go run ./bench -selfcheck            two sets back to back, compared
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// The last form is what BENCHMARK.json's driver calls: one workload in
// this process, one JSON result object as the last line of output. See
// README.md for every workload and metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const schema = "conscale-bench-e2e/1"

// result is the last line a one-workload run prints: exactly the keys
// the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is the line before it: what the full-set parent needs beyond
// the driver's keys.
type detail struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Reps      int                `json:"reps"`
	RepWallS  []float64          `json:"rep_wall_s"`
	Hash      string             `json:"timeline_sha256"`
	ConfigSHA string             `json:"config_sha256"`
	Sim       map[string]float64 `json:"sim"`
	Checks    []check            `json:"checks"`
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload in this process and print the driver's result line ("+workloadNames()+")")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "repeat each workload until this much time is measured (0 = exactly 3 repetitions)")
	trace := fs.Int("trace", 0, "1 = the per-layer pass: traced assembly, probe table (a bare -trace means 1)")
	selfcheck := fs.Bool("selfcheck", false, "run two full sets back to back and compare them within the bounds")
	outDir := fs.String("out", "bench/out", "directory for trace_<workload>.json")
	if err := fs.Parse(bareTrace(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		os.Exit(2)
	}

	switch {
	case *workload != "":
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, workloadNames())
			os.Exit(2)
		}
		os.Exit(runOne(w, *seed, *seconds, *trace == 1, *outDir))
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds))
	default:
		os.Exit(runSet(*seed, *seconds, *trace == 1, *outDir))
	}
}

// bareTrace lets `-trace` stand alone (the human form) beside the
// driver's `--trace 0|1`: a -trace not followed by 0 or 1 becomes
// -trace=1.
func bareTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// stampOf states what produced an artifact: schema, seed, code and
// toolchain versions, and the parallelism available.
func stampOf(seed uint64) map[string]any {
	return map[string]any{
		"schema":     schema,
		"seed":       seed,
		"git_rev":    gitRev(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
}

// gitRev is the checked-out commit, or "unknown" outside a git checkout
// (the driver's checkout is not one).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runOne measures one workload in this process and prints the detail
// line and the result line. It returns the exit code: 1 when a
// correctness check failed.
func runOne(w *spec, seed uint64, seconds float64, traced bool, outDir string) int {
	var (
		m       measured
		metrics map[string]value
	)
	if traced {
		stamp := stampOf(seed)
		stamp["workload"] = w.name
		var err error
		metrics, m, err = perLayerMetrics(w, seed, 0, outDir, stamp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else {
		m = measure(w, seed, seconds)
		metrics = endToEndMetrics(m)
	}
	m.Checks = append(m.Checks, finiteCheck(metrics))

	d := detail{
		Workload:  w.name,
		Seed:      seed,
		Reps:      len(m.Reps),
		Hash:      m.Out.Hash,
		ConfigSHA: m.ConfigSHA,
		Sim:       simMetrics(m.Out),
		Checks:    m.Checks,
	}
	for _, r := range m.Reps {
		d.RepWallS = append(d.RepWallS, r.WallS)
	}
	for _, c := range m.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "bench: %s: check %s: %s\n", w.name, c.Name, c.Note)
		}
	}
	// attempted counts the simulated requests the timed repetitions
	// resolved. A shed or failed simulated request is a correct output of
	// the simulator, reported as sim_failed_share; failed counts
	// repetitions' requests only when the run itself is wrong.
	res := result{
		Correct:   passed(m.Checks),
		Attempted: m.Out.resolved() * int64(len(m.Reps)),
		Metrics:   metrics,
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	printJSONLine(map[string]any{"detail": d})
	printJSONLine(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings
	}
	fmt.Println(string(b))
}

// childRun is one workload's parsed child output.
type childRun struct {
	detail
	result
}

// runChild re-executes this binary for one workload, so every workload
// starts from a fresh heap and a fresh runtime, and parses its last two
// lines.
func runChild(name string, seed uint64, seconds float64, traced bool, outDir string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return childRun{}, fmt.Errorf("workload %s: no result (%v)", name, runErr)
	}
	var c childRun
	var wrap struct {
		Detail detail `json:"detail"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &wrap); err != nil {
		return childRun{}, fmt.Errorf("workload %s: detail line: %w", name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &c.result); err != nil {
		return childRun{}, fmt.Errorf("workload %s: result line: %w", name, err)
	}
	c.detail = wrap.Detail
	return c, nil // a failed check is in c.Correct; the exit code repeats it
}

// set is one full round: every workload in its own child process.
type set struct {
	runs   []childRun
	checks []check
}

func runSetOnce(seed uint64, seconds float64, traced bool, outDir string) (set, error) {
	var s set
	hashes := map[string]string{}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.name)
		c, err := runChild(w.name, seed, seconds, traced, outDir)
		if err != nil {
			return s, err
		}
		s.runs = append(s.runs, c)
		hashes[w.name] = c.Hash
	}
	s.checks = append(s.checks, hashCheck("paper_armed_equals_paper_bare", hashes["paper_armed"], hashes["paper_bare"]))
	return s, nil
}

func (s set) correct() bool {
	for _, r := range s.runs {
		if !r.Correct {
			return false
		}
	}
	return passed(s.checks)
}

// reportedMetric is a metric value with its unit, direction and bound.
type reportedMetric struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSet runs every workload and prints one JSON document: the stamp,
// then per workload every metric by name with unit, direction and bound.
func runSet(seed uint64, seconds float64, traced bool, outDir string) int {
	s, err := runSetOnce(seed, seconds, traced, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := append(append([]metricDef(nil), endToEnd...), perLayerDefs()...)
	byName := map[string]metricDef{}
	for _, d := range defs {
		byName[d.Name] = d
	}
	stamp := stampOf(seed)
	cfgs := map[string]string{}
	wl := map[string]any{}
	for _, r := range s.runs {
		cfgs[r.Workload] = r.ConfigSHA
		ms := map[string]reportedMetric{}
		add := func(name string, v float64) {
			d := byName[name]
			rm := reportedMetric{Value: v, Unit: d.Unit, Better: d.Better}
			if d.Bound > 0 {
				b := d.Bound
				rm.Bound = &b
			}
			ms[name] = rm
		}
		for name, v := range r.Metrics {
			add(name, v.Value)
		}
		for name, v := range r.Sim {
			add(name, v)
		}
		wl[r.Workload] = map[string]any{
			"correct":         r.Correct,
			"attempted":       r.Attempted,
			"failed":          r.Failed,
			"reps":            r.Reps,
			"rep_wall_s":      r.RepWallS,
			"timeline_sha256": r.Hash,
			"checks":          r.Checks,
			"metrics":         ms,
		}
	}
	stamp["config_sha256"] = cfgs
	pass := "end_to_end"
	if traced {
		pass = "per_layer"
	}
	doc := map[string]any{
		"stamp":     stamp,
		"pass":      pass,
		"correct":   s.correct(),
		"checks":    s.checks,
		"workloads": wl,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain maps of numbers and strings
	}
	fmt.Println(string(b))
	if !s.correct() {
		return 1
	}
	return 0
}

// runSelfcheck runs two full sets back to back and prints, per
// end-to-end metric and workload, both medians, their relative
// difference and the bound. It fails when a pair disagrees by more than
// its bound: then the benchmark cannot resolve a change of that size.
func runSelfcheck(seed uint64, seconds float64) int {
	var sets [2]set
	for i := range sets {
		s, err := runSetOnce(seed, seconds, false, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		sets[i] = s
	}
	code := 0
	if !sets[0].correct() || !sets[1].correct() {
		code = 1
	}
	fmt.Printf("%-20s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, a := range sets[0].runs {
		b := sets[1].runs[i]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := ""
			if !(diff <= d.Bound) {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				a.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return code
}
