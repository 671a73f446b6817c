package experiment

import (
	"fmt"
	"io"
	"math"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/plot"
)

// WriteTimelineCSV emits a run's per-second series (the data behind the
// Fig. 1/10/11 timelines): time, users, throughput, mean RT (ms), errors,
// VM count, app/db tier CPU, and the soft-resource settings.
func WriteTimelineCSV(w io.Writer, r *RunResult) error {
	return sticky(func(w io.Writer) {
		fmt.Fprintln(w, "time_s,users,throughput_rps,mean_rt_ms,errors,vms,app_cpu,db_cpu,app_threads,db_conns")
		for i, p := range r.Timeline {
			vms, appCPU, dbCPU := 0, 0.0, 0.0
			threads, conns := 0, 0
			if i < len(r.VMs) {
				vms = r.VMs[i]
			}
			if i < len(r.TierCPU[cluster.App]) {
				appCPU = r.TierCPU[cluster.App][i]
			}
			if i < len(r.TierCPU[cluster.DB]) {
				dbCPU = r.TierCPU[cluster.DB][i]
			}
			if i < len(r.SoftHistory) {
				threads, conns = r.SoftHistory[i][0], r.SoftHistory[i][1]
			}
			rt := p.MeanRT * 1000
			if math.IsNaN(rt) {
				rt = 0
			}
			fmt.Fprintf(w, "%.0f,%d,%.1f,%.1f,%d,%d,%.3f,%.3f,%d,%d\n",
				float64(p.Time), p.Users, p.Throughput, rt, p.Errors, vms, appCPU, dbCPU, threads, conns)
		}
	})(w)
}

// WriteSweepCSV emits a profiling sweep (Fig. 3/7 panels) as CSV.
func WriteSweepCSV(w io.Writer, s SweepResult) error {
	return sticky(func(w io.Writer) {
		fmt.Fprintln(w, "level,concurrency,throughput_rps,mean_rt_ms")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%d,%.2f,%.1f,%.2f\n", p.Level, p.Concurrency, p.Throughput, p.MeanRT*1000)
		}
	})(w)
}

// WriteTraceCSV emits the Fig. 9 trace curves side by side.
func WriteTraceCSV(w io.Writer, traces []TraceSeries) error {
	return sticky(func(w io.Writer) {
		fmt.Fprint(w, "time_s")
		maxLen := 0
		for _, tr := range traces {
			fmt.Fprint(w, ",", tr.Name)
			maxLen = max(maxLen, len(tr.Users))
		}
		fmt.Fprintln(w)
		for i := 0; i < maxLen; i++ {
			fmt.Fprint(w, i)
			for _, tr := range traces {
				v := 0
				if i < len(tr.Users) {
					v = tr.Users[i]
				}
				fmt.Fprint(w, ",", v)
			}
			fmt.Fprintln(w)
		}
	})(w)
}

// RenderFig1 summarises Fig. 1's run: its worst second, p99 and
// scaling-event count.
func RenderFig1(w io.Writer, r *RunResult) {
	fmt.Fprintf(w, "   maxRT=%.0fms p99=%.0fms, %d scaling events\n", r.MaxRT()*1000, r.P99*1000, len(r.Events))
}

// RenderFig3 prints the three measured knees beside the paper's.
func RenderFig3(w io.Writer, r Fig3Result) {
	fmt.Fprintf(w, "   knees: 1-core=%d, 2-core=%d, 2-core enlarged=%d (paper: 10/20/15)\n",
		r.OneCore.Qlower, r.TwoCore.Qlower, r.TwoCoreEnlarged.Qlower)
}

// RenderFig5 prints the window count and span of Fig. 5's series.
func RenderFig5(w io.Writer, r Fig5Result) {
	fmt.Fprintf(w, "   %d windows over [%.0fs, %.0fs)\n", len(r.Samples), float64(r.From), float64(r.To))
}

// RenderFig6 prints the rational concurrency range Fig. 6 derives.
func RenderFig6(w io.Writer, r Fig6Result) {
	if !r.OK {
		fmt.Fprintln(w, "   estimate unavailable")
		return
	}
	fmt.Fprintf(w, "   rational range [%d, %d], plateau %.0f q/s, optimal setting %d\n",
		r.Estimate.Qlower, r.Estimate.Qupper, r.Estimate.PlateauTP, r.Estimate.Optimal())
}

// RenderFig7 prints each Fig. 7 panel's knee and peak throughput.
func RenderFig7(w io.Writer, panels []Fig7Panel) {
	for _, p := range panels {
		fmt.Fprintf(w, "   %s: Qlower=%d TPmax=%.0f\n", p.Label, p.Sweep.Qlower, p.Sweep.MaxTP)
	}
}

// RenderTable1 formats Table I in the paper's layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-20s %14s %14s\n", "Trace", "EC2 p95/p99", "ConScale p95/p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %6.0f/%6.0f  %6.0f/%6.0f ms\n",
			r.Trace, r.EC2P95*1000, r.EC2P99*1000, r.ConScaleP95*1000, r.ConScaleP99*1000)
	}
}

// RenderAblation prints ablation rows.
func RenderAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s p95=%6.0fms p99=%6.0fms %s\n", r.Label, r.P95*1000, r.P99*1000, r.Detail)
	}
}

// RenderCompare summarises a baseline-vs-ConScale pair.
func RenderCompare(w io.Writer, c CompareResult) {
	for _, r := range []*RunResult{c.Baseline, c.ConScale} {
		fmt.Fprintf(w, "%-16s p50=%5.0fms p95=%6.0fms p99=%6.0fms maxRT=%6.0fms err=%.3f goodput=%d\n",
			r.Mode, r.P50*1000, r.P95*1000, r.P99*1000, r.MaxRT()*1000, r.ErrorRate, r.Goodput)
	}
}

// RenderRunSummary prints one run's headline numbers and scaling events.
func RenderRunSummary(w io.Writer, r *RunResult) {
	fmt.Fprintf(w, "%s on %s: p95=%.0fms p99=%.0fms maxRT=%.0fms err=%.3f goodput=%d\n",
		r.Mode, r.Trace, r.P95*1000, r.P99*1000, r.MaxRT()*1000, r.ErrorRate, r.Goodput)
	for _, e := range r.Events {
		fmt.Fprintf(w, "  t=%5.0fs %-10s %-6s %s\n", float64(e.Time), e.Kind, e.Tier, e.Detail)
	}
}

// RenderChaosTable prints the robustness matrix grouped by scenario.
func RenderChaosTable(w io.Writer, rows []ChaosRow) {
	fmt.Fprintf(w, "%-14s %-16s %9s %9s %7s %9s %8s\n",
		"scenario", "controller", "p95", "p99", "err", "goodput", "faults")
	prev := ""
	for _, r := range rows {
		scen := r.Scenario
		if scen == prev {
			scen = ""
		} else if prev != "" {
			fmt.Fprintln(w)
		}
		prev = r.Scenario
		fmt.Fprintf(w, "%-14s %-16s %7.0fms %7.0fms %6.1f%% %9d %8d\n",
			scen, r.Mode.String(), r.P95*1000, r.P99*1000, r.ErrorRate*100, r.Goodput, r.Windows)
	}
}

// RenderChaosTimeline draws a run's per-second response-time chart with a
// fault-window overlay bar ('#' marks seconds inside at least one fault
// window) and lists the activated faults.
func RenderChaosTimeline(w io.Writer, title string, r *RunResult) {
	const width, gutter = 72, 10
	xs := make([]float64, 0, len(r.Timeline))
	ys := make([]float64, 0, len(r.Timeline))
	var maxT float64
	for _, p := range r.Timeline {
		rt := p.MeanRT * 1000
		if math.IsNaN(rt) {
			rt = 0
		}
		xs = append(xs, float64(p.Time))
		ys = append(ys, rt)
		maxT = float64(p.Time)
	}
	fmt.Fprint(w, plot.New(title, width, 12).
		Labels("time (s)", "mean RT (ms)").
		Line(r.Mode.String(), xs, ys, '*').
		Render())
	if maxT <= 0 || len(r.FaultWindows) == 0 {
		return
	}
	// Overlay bar aligned with the chart's plot columns: '#' where the
	// second maps into an active fault window.
	overlay := make([]byte, width)
	for i := range overlay {
		overlay[i] = ' '
	}
	for _, fw := range r.FaultWindows {
		lo := int(float64(fw.Start) / maxT * float64(width-1))
		hi := int(float64(fw.End) / maxT * float64(width-1))
		for col := lo; col <= hi && col < width; col++ {
			if col >= 0 {
				overlay[col] = '#'
			}
		}
	}
	fmt.Fprintf(w, "%*s |%s\n", gutter-2, "faults", overlay)
	for _, fw := range r.FaultWindows {
		fmt.Fprintf(w, "%*s  %s\n", gutter-2, "", fw)
	}
}

// ShortDuration is a reduced run length used by tests and smoke runs.
const ShortDuration = 240 * des.Second
