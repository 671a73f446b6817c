package experiment

import (
	"fmt"
	"io"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/workload"
)

// BlameResult is one controller's traced Large Variations run: the full
// run result (tracer and audit trail included) plus its windowed blame
// table.
type BlameResult struct {
	Mode scaling.Mode
	Res  *RunResult
	Rows []trace.BlameRow
}

// blameModes is the canonical controller order of the blame comparison.
var blameModes = []scaling.Mode{scaling.EC2, scaling.DCM, scaling.ConScale}

// Blame replays the Large Variations trace under EC2, DCM, and ConScale
// with per-request tracing armed, producing the latency-blame comparison:
// where response time is spent (tier × wait type) as each controller
// rides the same load burst. The canonical setup is the paper's (7500
// users, 720 s).
func Blame(seed uint64) []BlameResult {
	return BlameRuns(seed, 720*des.Second, 7500)
}

// BlameRuns is Blame with the run size exposed (short CI and test runs).
// The three runs fan out over the worker pool; the DCM profile comes from
// the analytic queueing model so every controller's run shares one
// deterministic setup.
func BlameRuns(seed uint64, duration des.Time, users int) []BlameResult {
	profile := AnalyticDCMProfile(cluster.DefaultConfig())
	cfgs := make([]RunConfig, len(blameModes))
	for i, mode := range blameModes {
		cfg := DefaultRunConfig(mode, workload.LargeVariations)
		cfg.Seed = seed
		cfg.Duration = duration
		cfg.MaxUsers = users
		// 1/16 head sampling keeps tens of thousands of blame records per
		// run while exercising the sampled path, not the firehose.
		cfg.Tracing = &trace.Config{SampleRate: 1.0 / 16, Reservoir: 8}
		cfg.Framework = profiledConfig(mode, profile)
		cfgs[i] = cfg
	}
	results := RunMany(cfgs)
	out := make([]BlameResult, len(blameModes))
	for i, res := range results {
		out[i] = BlameResult{Mode: blameModes[i], Res: res, Rows: res.Tracer.BlameTable()}
	}
	return out
}

// TransitionWindow returns the blame focus interval around the run's
// first app-tier scale-out ([t-20s, t+40s), clipped at zero) and whether
// the run scaled at all. This is the interval where the paper's
// queue-amplification story plays out: the new VM is up but the soft
// resources still reflect the old topology.
func (b BlameResult) TransitionWindow() (from, to des.Time, ok bool) {
	times := b.Res.ScaleOutTimes(cluster.App)
	if len(times) == 0 {
		return 0, 0, false
	}
	from = times[0] - 20*des.Second
	if from < 0 {
		from = 0
	}
	return from, times[0] + 40*des.Second, true
}

// blameFocusTiers are the (tier, component) columns of the rendered
// comparison — the soft-resource waits the controllers differ on, plus
// the service floor for scale.
var blameFocusComponents = []struct {
	label string
	tier  trace.TierID
	kind  trace.SegKind
}{
	{"app queue", trace.TierApp, trace.SegQueue},
	{"app pool-wait", trace.TierApp, trace.SegPoolWait},
	{"db queue", trace.TierDB, trace.SegQueue},
	{"web queue", trace.TierWeb, trace.SegQueue},
	{"cpu service", trace.TierApp, trace.SegCPU},
}

// RenderBlame prints the per-controller blame comparison: overall and
// transition-window decompositions of the p95 class, one line per
// controller, plus each run's audit-trail volume.
func RenderBlame(w io.Writer, results []BlameResult) {
	fmt.Fprintln(w, "latency blame, Large Variations (p95 class, mean ms per request)")
	header := fmt.Sprintf("  %-16s %9s %9s", "controller", "p95 rt", "windows")
	for _, c := range blameFocusComponents {
		header += fmt.Sprintf(" %13s", c.label)
	}
	fmt.Fprintln(w, header)
	render := func(title string, pick func(b BlameResult) (trace.BlameRow, bool)) {
		fmt.Fprintf(w, "  -- %s\n", title)
		for _, b := range results {
			row, ok := pick(b)
			if !ok {
				fmt.Fprintf(w, "  %-16s %9s\n", b.Mode, "n/a")
				continue
			}
			line := fmt.Sprintf("  %-16s %8.0fms %9d", b.Mode, row.RT*1000, row.Requests)
			for _, c := range blameFocusComponents {
				line += fmt.Sprintf(" %11.1fms", row.Comp[c.tier][c.kind]*1000)
			}
			fmt.Fprintln(w, line)
		}
	}
	render("whole run", func(b BlameResult) (trace.BlameRow, bool) {
		return trace.BlameSummary(b.Rows, "p95", 0, des.Time(1e18))
	})
	render("scale-out transition (first app scale-out -20s..+40s)", func(b BlameResult) (trace.BlameRow, bool) {
		from, to, ok := b.TransitionWindow()
		if !ok {
			return trace.BlameRow{}, false
		}
		return trace.BlameSummary(b.Rows, "p95", from, to)
	})
	for _, b := range results {
		started, sampled, completed, failed := b.Res.Tracer.Stats()
		fmt.Fprintf(w, "  %-16s traced %d/%d requests (%d ok, %d failed), %d audit events\n",
			b.Mode, sampled, started, completed, failed, len(b.Res.Audit))
	}
}
