package experiment

import (
	"fmt"
	"io"

	"conscale/internal/chaos"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/workload"
)

// ChaosScenario is one canonical fault pattern for the robustness
// evaluation: Build produces the schedule for a run of the given length,
// deterministically from the seed, so all three controllers face the
// exact same fault timeline.
type ChaosScenario struct {
	Name string
	Desc string
	// Build derives the scenario's schedule from (seed, duration).
	Build func(seed uint64, duration des.Time) *chaos.Schedule
}

// ChaosScenarios returns the canonical fault scenarios of the robustness
// evaluation, each isolating one disturbance family plus one composite.
func ChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{
			Name: "crashes",
			Desc: "Poisson VM crashes (~0.5/min) across the app and DB tiers",
			Build: func(seed uint64, duration des.Time) *chaos.Schedule {
				return chaos.RandomCrashes(seed, 0.5, duration, cluster.App, cluster.DB)
			},
		},
		{
			Name: "interference",
			Desc: "noisy-neighbor CPU interference bursts (x2.5) on app-tier VMs",
			Build: func(seed uint64, duration des.Time) *chaos.Schedule {
				return chaos.InterferenceBursts(seed, 4, duration, 45*des.Second, cluster.App, 2.5)
			},
		},
		{
			Name: "net-jitter",
			Desc: "network jitter windows (+80 ms) on the app->db edge",
			Build: func(seed uint64, duration des.Time) *chaos.Schedule {
				return chaos.JitterBursts(seed, 4, duration, 40*des.Second, cluster.DB, 80*des.Millisecond)
			},
		},
		{
			Name: "stragglers",
			Desc: "every VM boot x6 slower, plus a DB and an app crash mid-run",
			Build: func(seed uint64, duration des.Time) *chaos.Schedule {
				s := chaos.NewSchedule(chaos.Stragglers(0, duration, 6))
				s.Add(chaos.Crash(des.Time(float64(duration)*0.35), cluster.DB, 0))
				s.Add(chaos.Crash(des.Time(float64(duration)*0.6), cluster.App, chaos.PickRandom))
				return s
			},
		},
	}
}

// ChaosRow is one (scenario, controller) cell of the robustness table.
type ChaosRow struct {
	Scenario  string
	Mode      scaling.Mode
	P95, P99  float64 // seconds
	ErrorRate float64
	Goodput   int
	// Windows is the number of faults that actually activated (faults
	// aimed at already-dead targets hit nothing and record no window).
	Windows int
}

// ChaosStudy is the robustness evaluation: every canonical scenario on
// the Large Variations trace under EC2, DCM and ConScale, keyed by
// scenario. Within a scenario all three controllers face the identical
// schedule. Every cell runs DCM's profile trained under clean conditions
// (faults are exactly what an offline profile cannot anticipate). Runs
// last the canonical 720 s. It prints the table and the
// interference scenario's timelines, and writes chaos_tail_latency.csv.
func ChaosStudy(seed uint64) Study { return chaosStudy(seed, 720*des.Second) }

// chaosStudy is ChaosStudy with every run, and so every schedule,
// duration long.
func chaosStudy(seed uint64, duration des.Time) Study {
	var cells []Cell
	for _, sc := range ChaosScenarios() {
		for _, mode := range paperModes {
			cfg := paperRun(mode, workload.LargeVariations, seed)
			cfg.Duration = duration
			cfg.Chaos = sc.Build(seed, duration)
			cells = append(cells, Cell{Key: sc.Name, Config: cfg, Train: true})
		}
	}
	return Study{Cells: cells, Fold: foldChaos}
}

// paperModes is the canonical controller order of the chaos, blame and
// SLO comparisons.
var paperModes = []scaling.Mode{scaling.EC2, scaling.DCM, scaling.ConScale}

// chaosRows folds each finished cell into its table row.
func chaosRows(cells []Cell, results []*RunResult) []ChaosRow {
	rows := make([]ChaosRow, len(cells))
	for i, res := range results {
		rows[i] = ChaosRow{
			Scenario:  cells[i].Key,
			Mode:      res.Mode,
			P95:       res.P95,
			P99:       res.P99,
			ErrorRate: res.ErrorRate,
			Goodput:   res.Goodput,
			Windows:   len(res.FaultWindows),
		}
	}
	return rows
}

// foldChaos prints the table and, from the same runs, the timelines of
// the interference scenario, where the three controllers separate most
// visibly.
func foldChaos(cells []Cell, results []*RunResult) Outcome {
	rows := chaosRows(cells, results)
	return Outcome{
		Summary: sticky(func(w io.Writer) {
			renderChaosTable(w, rows)
			for i, res := range results {
				if cells[i].Key == "interference" {
					fmt.Fprintln(w)
					renderChaosTimeline(w, "chaos/interference: "+res.Mode.String(), res)
				}
			}
		}),
		Artifacts: []Artifact{{"chaos_tail_latency.csv", sticky(func(w io.Writer) {
			fmt.Fprintln(w, "scenario,controller,p95_ms,p99_ms,error_rate,goodput,fault_windows")
			for _, r := range rows {
				fmt.Fprintf(w, "%s,%s,%.0f,%.0f,%.4f,%d,%d\n",
					r.Scenario, r.Mode, r.P95*1000, r.P99*1000, r.ErrorRate, r.Goodput, r.Windows)
			}
		})}},
	}
}
