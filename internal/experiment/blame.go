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

// BlameStudy replays the Large Variations trace under EC2, DCM, and
// ConScale with per-request tracing armed, at the paper's size (7500
// users, 720 s): where response time is spent (tier × wait type) as each
// controller rides the same load burst. Every cell runs the DCM profile
// of the analytic queueing model, so the three share one deterministic
// setup. Per controller it writes the blame table
// (blame_<controller>.csv), the audit trail (blame_audit_<controller>.csv)
// and the slowest sampled requests as a Chrome trace
// (blame_trace_<controller>.json).
func BlameStudy(seed uint64) Study {
	profile := AnalyticDCMProfile(cluster.DefaultConfig())
	cells := make([]Cell, len(paperModes))
	for i, mode := range paperModes {
		cfg := paperRun(mode, workload.LargeVariations, seed)
		// 1/16 head sampling keeps tens of thousands of blame records per
		// run while exercising the sampled path, not the firehose.
		cfg.Tracing = &trace.Config{SampleRate: 1.0 / 16, Reservoir: 8}
		cfg.Framework = profiledConfig(mode, profile)
		cells[i] = Cell{Key: mode.String(), Config: cfg}
	}
	return Study{Cells: cells, Fold: foldBlame}
}

// blameResults pairs each finished run with its windowed blame table.
func blameResults(results []*RunResult) []BlameResult {
	out := make([]BlameResult, len(results))
	for i, res := range results {
		out[i] = BlameResult{Mode: res.Mode, Res: res, Rows: res.Tracer.BlameTable()}
	}
	return out
}

// foldBlame prints the comparison and the waterfall of each controller's
// slowest sampled request.
func foldBlame(_ []Cell, results []*RunResult) Outcome {
	blames := blameResults(results)
	var arts []Artifact
	for _, b := range blames {
		name := b.Mode.String()
		arts = append(arts,
			Artifact{"blame_" + sanitize(name) + ".csv", func(w io.Writer) error {
				return trace.WriteBlameCSV(w, name, b.Rows)
			}},
			Artifact{"blame_audit_" + sanitize(name) + ".csv", func(w io.Writer) error {
				return trace.WriteAuditCSV(w, b.Res.Audit)
			}},
			Artifact{"blame_trace_" + sanitize(name) + ".json", func(w io.Writer) error {
				return trace.WriteChromeTrace(w, b.Res.Tracer.Slowest(), b.Res.Audit)
			}})
	}
	return Outcome{
		Summary: func(w io.Writer) error {
			ew := &ErrWriter{W: w}
			renderBlame(ew, blames)
			for _, b := range blames {
				if slowest := b.Res.Tracer.Slowest(); len(slowest) > 0 {
					fmt.Fprintf(ew, "\n   slowest sampled request, %s (rt=%.0fms):\n", b.Mode, slowest[0].RT()*1000)
					if err := trace.WriteWaterfall(ew, slowest[0]); err != nil {
						return err
					}
				}
			}
			fmt.Fprintf(ew, "\n%s\n", trace.WaterfallLegend)
			return ew.Err
		},
		Artifacts: arts,
	}
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

// renderBlame prints the per-controller blame comparison: overall and
// transition-window decompositions of the p95 class, one line per
// controller, plus each run's audit-trail volume.
func renderBlame(w io.Writer, results []BlameResult) {
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
