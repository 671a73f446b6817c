package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/workload"
)

// TournamentConfig describes the full-factorial controller tournament:
// every registered controller against every workload trace at every
// scale tier, each cell a complete simulated run with telemetry and the
// audit trail armed. The factorial design answers the question the
// paper's three-way comparison only samples — which policy family wins
// where, measured on the same axes operators actually rank on: tail
// latency, SLO burn, and capacity cost.
type TournamentConfig struct {
	// Controllers are registry names (default: every registered one).
	Controllers []string
	// Traces are workload trace names (default: all six shapes).
	Traces []string
	// Tiers are peak client counts, one factorial axis per entry
	// (default 2500 and 7500 — the paper's evaluation population and a
	// third of it).
	Tiers []int
	// Duration is the simulated length per cell (default 300 s).
	Duration des.Time
	// Seed derives every cell's random streams (default 1).
	Seed uint64
	// WarmupSkip excludes the initial span from the tail statistics
	// (default 30 s).
	WarmupSkip des.Time
}

// DefaultTournamentConfig returns the standard factorial: every
// registered controller × all six traces × two scale tiers.
func DefaultTournamentConfig() TournamentConfig {
	return TournamentConfig{
		Controllers: scaling.Names(),
		Traces: []string{
			workload.LargeVariations, workload.QuicklyVarying, workload.SlowlyVarying,
			workload.BigSpike, workload.DualPhase, workload.SteepTriPhase,
		},
		Tiers:      []int{2500, 7500},
		Duration:   300 * des.Second,
		Seed:       1,
		WarmupSkip: 30 * des.Second,
	}
}

// Validate reports every unknown controller or trace, non-positive tier
// and negative duration. Zero fields take the defaults.
func (cfg TournamentConfig) Validate() error {
	errs := []error{
		checkNames(cfg.Controllers, knownController),
		checkNames(cfg.Traces, workload.CheckTrace),
		checkSizes(size{"tournament Duration", float64(cfg.Duration)},
			size{"tournament WarmupSkip", float64(cfg.WarmupSkip)}),
	}
	for _, n := range cfg.Tiers {
		if n <= 0 {
			errs = append(errs, fmt.Errorf("experiment: tournament tier %d is not a positive client count", n))
		}
	}
	return errors.Join(errs...)
}

// WithDefaults returns cfg with every zero field set to its default.
func (cfg TournamentConfig) WithDefaults() TournamentConfig {
	def := DefaultTournamentConfig()
	if len(cfg.Controllers) == 0 {
		cfg.Controllers = def.Controllers
	}
	if len(cfg.Traces) == 0 {
		cfg.Traces = def.Traces
	}
	if len(cfg.Tiers) == 0 {
		cfg.Tiers = def.Tiers
	}
	if cfg.Duration <= 0 {
		cfg.Duration = def.Duration
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.WarmupSkip <= 0 {
		cfg.WarmupSkip = def.WarmupSkip
	}
	return cfg
}

// TournamentCell is one factorial cell: a controller on a trace at a
// tier, scored on the ranking axes.
type TournamentCell struct {
	// Controller / Trace / Users locate the cell in the factorial.
	Controller string `json:"controller"`
	Trace      string `json:"trace"`
	Users      int    `json:"users"`
	// P50Ms/P95Ms/P99Ms/MeanMs are post-warmup client latencies (ms).
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// Goodput / ErrorRate summarise the client outcome.
	Goodput   int     `json:"goodput"`
	ErrorRate float64 `json:"error_rate"`
	// SLOBurnMin is the total minutes the burn-rate monitor held an
	// alert raised during the run.
	SLOBurnMin float64 `json:"slo_burn_min"`
	// VMHours is the integrated capacity cost (VM-seconds / 3600).
	VMHours float64 `json:"vm_hours"`
	// Actions counts decision-log entries (scale-out/in, pool resizes,
	// repairs); AuditEvents the audit-trail records behind them.
	Actions     int `json:"actions"`
	AuditEvents int `json:"audit_events"`
}

// TournamentRank is one controller's aggregate standing across every
// cell it played: per-metric totals and the rank sum that orders the
// final table (rank 1 = best on a metric; lower score = better).
type TournamentRank struct {
	Controller string `json:"controller"`
	// MeanP99Ms averages the cell p99s; BurnMin and VMHours total the
	// cells' SLO-burn minutes and capacity cost.
	MeanP99Ms float64 `json:"mean_p99_ms"`
	BurnMin   float64 `json:"slo_burn_min"`
	VMHours   float64 `json:"vm_hours"`
	// P99Rank / BurnRank / VMRank are the per-metric standings; Score
	// is their sum, the tournament ordering.
	P99Rank  int `json:"p99_rank"`
	BurnRank int `json:"burn_rank"`
	VMRank   int `json:"vm_rank"`
	Score    int `json:"score"`
}

// TournamentResult is the full tournament outcome.
type TournamentResult struct {
	// Cells holds every factorial cell in controllers × traces × tiers
	// order. Ranking orders controllers by rank-sum score.
	Cells   []TournamentCell
	Ranking []TournamentRank
}

// RunTournament executes the factorial and ranks the controllers. Every
// cell runs with telemetry (for SLO burn accounting) and the audit
// trail armed, flowing each controller's decisions through the same
// observability stack the single-run experiments use. Cells fan out
// over the harness worker pool into indexed slots, so the result is the
// same at any worker count. A config that fails Validate returns its
// error before any cell runs.
func RunTournament(cfg TournamentConfig) (*TournamentResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()

	type cellSpec struct {
		ctrl, trace string
		users       int
	}
	var specs []cellSpec
	for _, ctrl := range cfg.Controllers {
		for _, tr := range cfg.Traces {
			for _, users := range cfg.Tiers {
				specs = append(specs, cellSpec{ctrl: ctrl, trace: tr, users: users})
			}
		}
	}

	profile := AnalyticDCMProfile(cluster.DefaultConfig())
	res := &TournamentResult{Cells: make([]TournamentCell, len(specs))}
	ParallelFor(len(specs), func(i int) {
		spec := specs[i]
		fcfg := profiledConfig(scaling.EC2, profile) // Controller, not Mode, names the policy
		shortHorizonSCT(fcfg, 60*des.Second)
		r := Run(RunConfig{
			Controller: spec.ctrl,
			TraceName:  spec.trace,
			MaxUsers:   spec.users,
			Duration:   cfg.Duration,
			Seed:       cfg.Seed,
			ThinkTime:  3,
			Framework:  fcfg,
			Tracing:    &trace.Config{},
			Telemetry:  &TelemetryOptions{},
			WarmupSkip: cfg.WarmupSkip,
		})
		res.Cells[i] = tournamentCell(spec.ctrl, spec.trace, spec.users, r)
	})
	res.Ranking = rankTournament(cfg.Controllers, res.Cells)
	return res, nil
}

// tournamentCell scores one finished run.
func tournamentCell(ctrl, traceName string, users int, r *RunResult) TournamentCell {
	ms := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v * 1000
	}
	cell := TournamentCell{
		Controller: ctrl,
		Trace:      traceName,
		Users:      users,
		P50Ms:      ms(r.P50),
		P95Ms:      ms(r.P95),
		P99Ms:      ms(r.P99),
		MeanMs:     ms(r.MeanRT),
		Goodput:    r.Goodput,
		ErrorRate:  r.ErrorRate,
		Actions:    len(r.Events),
	}
	if r.SLO != nil {
		for _, al := range r.SLO.Alerts() {
			cell.SLOBurnMin += float64(al.End-al.Start) / 60
		}
	}
	for _, vms := range r.VMs {
		cell.VMHours += float64(vms) / 3600
	}
	cell.AuditEvents = len(r.Audit)
	return cell
}

// rankTournament aggregates cells per controller and orders them by
// rank sum over (mean p99, total SLO-burn minutes, total VM-hours).
// Equal metric values share a rank, so identical policies tie rather
// than being ordered by name.
func rankTournament(controllers []string, cells []TournamentCell) []TournamentRank {
	ranks := make([]TournamentRank, 0, len(controllers))
	for _, ctrl := range controllers {
		agg := TournamentRank{Controller: ctrl}
		n := 0
		for _, c := range cells {
			if c.Controller != ctrl {
				continue
			}
			agg.MeanP99Ms += c.P99Ms
			agg.BurnMin += c.SLOBurnMin
			agg.VMHours += c.VMHours
			n++
		}
		if n > 0 {
			agg.MeanP99Ms /= float64(n)
		}
		ranks = append(ranks, agg)
	}

	assignRanks(ranks, func(r TournamentRank) float64 { return r.MeanP99Ms },
		func(r *TournamentRank, v int) { r.P99Rank = v })
	assignRanks(ranks, func(r TournamentRank) float64 { return r.BurnMin },
		func(r *TournamentRank, v int) { r.BurnRank = v })
	assignRanks(ranks, func(r TournamentRank) float64 { return r.VMHours },
		func(r *TournamentRank, v int) { r.VMRank = v })
	for i := range ranks {
		ranks[i].Score = ranks[i].P99Rank + ranks[i].BurnRank + ranks[i].VMRank
	}
	sort.SliceStable(ranks, func(a, b int) bool {
		if ranks[a].Score != ranks[b].Score {
			return ranks[a].Score < ranks[b].Score
		}
		return ranks[a].Controller < ranks[b].Controller
	})
	return ranks
}

// assignRanks gives each entry its 1-based standing on one metric,
// sharing ranks on exact ties (competition ranking).
func assignRanks(ranks []TournamentRank, metric func(TournamentRank) float64, set func(*TournamentRank, int)) {
	order := make([]int, len(ranks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return metric(ranks[order[a]]) < metric(ranks[order[b]])
	})
	for pos, idx := range order {
		// Walk back to the first entry of an exact-tie group so ties
		// share the group's standing.
		first := pos
		for first > 0 && metric(ranks[order[first-1]]) == metric(ranks[idx]) {
			first--
		}
		set(&ranks[idx], first+1)
	}
}

// TournamentReport is the `-run tournament` JSON artifact, BENCH_6.json
// (schema conscale-bench/6).
type TournamentReport struct {
	// Schema identifies the report format.
	Schema string `json:"schema"`
	// Ranking orders the controllers; Cells holds the full factorial.
	Ranking []TournamentRank `json:"ranking"`
	Cells   []TournamentCell `json:"tournament"`
}

// WriteTournamentReport writes the tournament as indented JSON.
func WriteTournamentReport(w io.Writer, res *TournamentResult) error {
	rep := TournamentReport{
		Schema:  "conscale-bench/6",
		Ranking: res.Ranking,
		Cells:   res.Cells,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteTournamentCSV writes every factorial cell as CSV
// (tournament_summary.csv).
func WriteTournamentCSV(w io.Writer, res *TournamentResult) {
	fmt.Fprintln(w, "controller,trace,users,p50_ms,p95_ms,p99_ms,mean_ms,goodput,error_rate,slo_burn_min,vm_hours,actions,audit_events")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "%s,%s,%d,%.1f,%.1f,%.1f,%.1f,%d,%.4f,%.2f,%.3f,%d,%d\n",
			c.Controller, c.Trace, c.Users, c.P50Ms, c.P95Ms, c.P99Ms, c.MeanMs,
			c.Goodput, c.ErrorRate, c.SLOBurnMin, c.VMHours, c.Actions, c.AuditEvents)
	}
}

// RenderTournament prints the ranked standings and per-cell table.
func RenderTournament(w io.Writer, res *TournamentResult) {
	fmt.Fprintf(w, "%-20s %10s %9s %9s %5s %5s %5s %6s\n",
		"controller", "p99_ms", "burn_min", "vm_hours", "rP99", "rBurn", "rVM", "score")
	for _, r := range res.Ranking {
		fmt.Fprintf(w, "%-20s %10.1f %9.2f %9.3f %5d %5d %5d %6d\n",
			r.Controller, r.MeanP99Ms, r.BurnMin, r.VMHours, r.P99Rank, r.BurnRank, r.VMRank, r.Score)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-20s %-17s %8s %9s %9s %8s %9s %8s\n",
		"controller", "trace", "users", "p99_ms", "burn_min", "vm_hrs", "goodput", "actions")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "%-20s %-17s %8d %9.1f %9.2f %8.3f %9d %8d\n",
			c.Controller, c.Trace, c.Users, c.P99Ms, c.SLOBurnMin, c.VMHours, c.Goodput, c.Actions)
	}
}
