package experiment

import (
	"fmt"
	"io"
	"time"
)

// Report bundles the headline reproduction results for the markdown
// report: the Table I rows plus the Fig. 3 knees and the Fig. 11
// comparison — the three results that define whether the reproduction
// holds.
type Report struct {
	Seed   uint64
	Table1 []Table1Row
	Fig3   Fig3Result
	// Fig11 is Fig11Study's DCM run, then its ConScale run.
	Fig11   []*RunResult
	Elapsed time.Duration
}

// BuildReport runs the headline experiments at the given seed. This is
// the expensive all-in-one entry point behind `cmd/experiments -run
// report`.
func BuildReport(seed uint64) *Report {
	start := time.Now()
	r := &Report{Seed: seed}
	// The three headline experiments are independent; let them overlap in
	// the pool on top of their own internal fan-out.
	parts := []func(){
		func() {
			s := Table1Study(seed)
			r.Table1 = table1Rows(s.Cells, s.Run(nil))
		},
		func() { r.Fig3 = Fig3(seed) },
		func() { r.Fig11 = Fig11Study(seed).Run(nil) },
	}
	ParallelFor(len(parts), func(i int) { parts[i]() })
	r.Elapsed = time.Since(start)
	return r
}

// ReportOutcome builds the report and returns it as markdown, REPORT.md.
func ReportOutcome(seed uint64) Outcome {
	return Outcome{Artifacts: []Artifact{{"REPORT.md", BuildReport(seed).WriteMarkdown}}}
}

// WriteMarkdown renders the report as a standalone markdown document with
// the paper-vs-measured verdicts spelled out.
func (r *Report) WriteMarkdown(w io.Writer) error {
	return sticky(func(w io.Writer) {
		p := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
		p("# ConScale reproduction report\n\nSeed %d; all runs deterministic. Generated by `cmd/experiments -run report` in %.0f s.\n\n",
			r.Seed, r.Elapsed.Seconds())

		p("## Fig. 3 — optimal concurrency vs pre-profiling conditions\n\n"+
			"| Condition | Paper knee | Measured knee |\n|---|---|---|\n"+
			"| Tomcat 1 vCPU | 10 | %d |\n| Tomcat 2 vCPU | 20 | %d |\n| Tomcat 2 vCPU, dataset ×2 | 15 | %d |\n\n",
			r.Fig3.OneCore.Qlower, r.Fig3.TwoCore.Qlower, r.Fig3.TwoCoreEnlarged.Qlower)
		verdict := "REPRODUCED"
		if !(r.Fig3.TwoCore.Qlower > r.Fig3.OneCore.Qlower && r.Fig3.TwoCoreEnlarged.Qlower < r.Fig3.TwoCore.Qlower) {
			verdict = "NOT REPRODUCED"
		}
		p("Shape (knee doubles with cores, shrinks with dataset growth): **%s**\n\n", verdict)

		p("## Table I — tail latencies (ms), EC2-AutoScaling vs ConScale\n\n" +
			"| Trace | EC2 p95 | EC2 p99 | ConScale p95 | ConScale p99 | ConScale wins |\n|---|---|---|---|---|---|\n")
		wins := 0
		for _, row := range r.Table1 {
			mark := "no"
			if row.ConScaleP95 < row.EC2P95 && row.ConScaleP99 < row.EC2P99 {
				wins++
				mark = "yes"
			}
			p("| %s | %.0f | %.0f | %.0f | %.0f | %s |\n",
				row.Trace, row.EC2P95*1000, row.EC2P99*1000,
				row.ConScaleP95*1000, row.ConScaleP99*1000, mark)
		}
		verdict = "REPRODUCED"
		if wins < len(r.Table1) {
			verdict = fmt.Sprintf("PARTIAL (%d/%d traces)", wins, len(r.Table1))
		}
		p("\nShape (ConScale wins both percentiles on every trace): **%s**\n\n", verdict)

		d, c := r.Fig11[0], r.Fig11[1]
		p("## Fig. 11 — stale offline profile (DCM) vs online adaption (ConScale)\n\n"+
			"| Framework | p95 (ms) | p99 (ms) | goodput |\n|---|---|---|---|\n"+
			"| DCM (profile trained on the original dataset) | %.0f | %.0f | %d |\n"+
			"| ConScale | %.0f | %.0f | %d |\n\n",
			d.P95*1000, d.P99*1000, d.Goodput, c.P95*1000, c.P99*1000, c.Goodput)
		verdict = "REPRODUCED"
		if c.P95 >= d.P95 {
			verdict = "NOT REPRODUCED"
		}
		p("Shape (online adaption beats the stale profile after a system-state change): **%s**\n", verdict)
	})(w)
}
