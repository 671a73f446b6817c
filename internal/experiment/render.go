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

// writeSweepCSV emits a profiling sweep (Fig. 3/7 panels) as CSV.
func writeSweepCSV(w io.Writer, s SweepResult) error {
	return sticky(func(w io.Writer) {
		fmt.Fprintln(w, "level,concurrency,throughput_rps,mean_rt_ms")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%d,%.2f,%.1f,%.2f\n", p.Level, p.Concurrency, p.Throughput, p.MeanRT*1000)
		}
	})(w)
}

// writeTraceCSV emits the Fig. 9 trace curves side by side.
func writeTraceCSV(w io.Writer, traces []TraceSeries) error {
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

// renderTable1 formats Table I in the paper's layout.
func renderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-20s %14s %14s\n", "Trace", "EC2 p95/p99", "ConScale p95/p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %6.0f/%6.0f  %6.0f/%6.0f ms\n",
			r.Trace, r.EC2P95*1000, r.EC2P99*1000, r.ConScaleP95*1000, r.ConScaleP99*1000)
	}
}

// renderAblation prints ablation rows.
func renderAblation(w io.Writer, title string, rows []ablationRow) {
	fmt.Fprintln(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s p95=%6.0fms p99=%6.0fms %s\n", r.Label, r.P95*1000, r.P99*1000, r.Detail)
	}
}

// renderRuns prints each run's headline numbers, one line per run.
func renderRuns(w io.Writer, results []*RunResult) {
	for _, r := range results {
		fmt.Fprintf(w, "%-16s p50=%5.0fms p95=%6.0fms p99=%6.0fms maxRT=%6.0fms err=%.3f goodput=%d, %d scaling events\n",
			r.Mode, r.P50*1000, r.P95*1000, r.P99*1000, r.MaxRT()*1000, r.ErrorRate, r.Goodput, len(r.Events))
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

// renderChaosTable prints the robustness matrix grouped by scenario.
func renderChaosTable(w io.Writer, rows []ChaosRow) {
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

// renderChaosTimeline draws a run's per-second response-time chart with a
// fault-window overlay bar ('#' marks seconds inside at least one fault
// window) and lists the activated faults.
func renderChaosTimeline(w io.Writer, title string, r *RunResult) {
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
