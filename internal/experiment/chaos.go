package experiment

import (
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

// ChaosRun executes the Large Variations trace under one fault scenario
// for one controller. duration 0 takes the canonical 720 s; the DCM
// profile is trained under clean conditions (faults are exactly what an
// offline profile cannot anticipate).
func ChaosRun(mode scaling.Mode, seed uint64, duration des.Time, sched *chaos.Schedule, profile scaling.DCMProfile) *RunResult {
	cfg := DefaultRunConfig(mode, workload.LargeVariations)
	cfg.Seed = seed
	if duration > 0 {
		cfg.Duration = duration
	}
	cfg.Chaos = sched
	cfg.Framework = profiledConfig(mode, profile)
	return Run(cfg)
}

// ChaosTable runs every canonical scenario for EC2, DCM, and ConScale and
// returns the tail-latency matrix — the robustness evaluation headline.
// Within a scenario all three controllers face the identical schedule.
// The full scenario×controller matrix fans out over the worker pool (the
// DCM profile is trained once, up front); rows come back grouped by
// scenario in canonical order, exactly as the sequential path emitted
// them.
func ChaosTable(seed uint64, duration des.Time) []ChaosRow {
	profile := TrainDCM(seed, cluster.DefaultConfig())
	scenarios := ChaosScenarios()
	perScenario := len(chaosModes)
	rows := make([]ChaosRow, len(scenarios)*perScenario)
	ParallelFor(len(rows), func(i int) {
		sc := scenarios[i/perScenario]
		rows[i] = chaosCell(sc, chaosModes[i%perScenario], seed, duration, profile)
	})
	return rows
}

// chaosModes is the canonical controller order of every chaos table.
var chaosModes = []scaling.Mode{scaling.EC2, scaling.DCM, scaling.ConScale}

// ChaosScenarioTable runs a single named scenario across the three
// controllers (benchmarks, smoke tests). Unknown names return nil.
func ChaosScenarioTable(seed uint64, name string, duration des.Time) []ChaosRow {
	for _, sc := range ChaosScenarios() {
		if sc.Name == name {
			profile := TrainDCM(seed, cluster.DefaultConfig())
			return chaosScenarioRows(sc, seed, duration, profile)
		}
	}
	return nil
}

// ChaosTimelines runs the named scenario across all three controllers and
// returns the full results, for timeline rendering with fault overlays.
// Unknown names return nil.
func ChaosTimelines(seed uint64, name string, duration des.Time) []*RunResult {
	for _, sc := range ChaosScenarios() {
		if sc.Name != name {
			continue
		}
		dur := duration
		if dur <= 0 {
			dur = 720 * des.Second
		}
		profile := TrainDCM(seed, cluster.DefaultConfig())
		out := make([]*RunResult, len(chaosModes))
		ParallelFor(len(chaosModes), func(i int) {
			// Each run gets its own freshly-built schedule: Build is pure
			// in (seed, dur), so all controllers face identical faults
			// without sharing mutable schedule state across goroutines.
			out[i] = ChaosRun(chaosModes[i], seed, duration, sc.Build(seed, dur), profile)
		})
		return out
	}
	return nil
}

func chaosScenarioRows(sc ChaosScenario, seed uint64, duration des.Time, profile scaling.DCMProfile) []ChaosRow {
	rows := make([]ChaosRow, len(chaosModes))
	ParallelFor(len(chaosModes), func(i int) {
		rows[i] = chaosCell(sc, chaosModes[i], seed, duration, profile)
	})
	return rows
}

// chaosCell runs one (scenario, controller) pair and folds the result into
// its table row.
func chaosCell(sc ChaosScenario, mode scaling.Mode, seed uint64, duration des.Time, profile scaling.DCMProfile) ChaosRow {
	dur := duration
	if dur <= 0 {
		dur = 720 * des.Second
	}
	res := ChaosRun(mode, seed, duration, sc.Build(seed, dur), profile)
	return ChaosRow{
		Scenario:  sc.Name,
		Mode:      mode,
		P95:       res.P95,
		P99:       res.P99,
		ErrorRate: res.ErrorRate,
		Goodput:   res.Goodput,
		Windows:   len(res.FaultWindows),
	}
}
