package experiment

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"conscale/internal/chaos"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/forensics"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/workload"
)

// The fluctuation-episodes experiment: run every trace under the paper's
// three controllers plus the tournament winner with the forensics layer
// armed and a known chaos overlay injected, rank the controllers by how
// many fluctuation episodes they let through (and how long/deep), and
// cross-check the attribution pipeline's verdicts against the injected
// fault schedule — the ground truth the detector never sees directly.

// EpisodesConfig describes the comparison matrix.
type EpisodesConfig struct {
	// Controllers are registry names (default: ec2, dcm, conscale, and
	// target-tracking-sct — the tournament winner).
	Controllers []string
	// Traces are workload trace names (default: all six shapes).
	Traces []string
	// Users is the peak client population (default 7500).
	Users int
	// Duration is the simulated length per cell (default 720 s).
	Duration des.Time
	// Seed derives every cell's random streams (default 1).
	Seed uint64
	// Chaos arms the deterministic fault overlay. A zero config leaves
	// it off; DefaultEpisodesConfig arms it, since the attribution
	// precision/recall table needs the ground truth.
	Chaos bool
}

// DefaultEpisodesConfig returns the standard matrix at the paper's
// evaluation size, chaos overlay armed.
func DefaultEpisodesConfig() EpisodesConfig {
	return EpisodesConfig{
		Controllers: []string{"ec2", "dcm", "conscale", "target-tracking-sct"},
		Traces:      workload.Names(),
		Users:       7500,
		Duration:    720 * des.Second,
		Seed:        1,
		Chaos:       true,
	}
}

// Validate reports every unknown controller or trace and negative size.
// Zero fields take the defaults.
func (cfg EpisodesConfig) Validate() error {
	return errors.Join(
		checkNames(cfg.Controllers, knownController),
		checkNames(cfg.Traces, workload.CheckTrace),
		checkSizes(size{"episodes Users", float64(cfg.Users)},
			size{"episodes Duration", float64(cfg.Duration)}),
	)
}

// WithDefaults returns cfg with every zero field set to its default.
func (cfg EpisodesConfig) WithDefaults() EpisodesConfig {
	def := DefaultEpisodesConfig()
	if len(cfg.Controllers) == 0 {
		cfg.Controllers = def.Controllers
	}
	if len(cfg.Traces) == 0 {
		cfg.Traces = def.Traces
	}
	if cfg.Users <= 0 {
		cfg.Users = def.Users
	}
	if cfg.Duration <= 0 {
		cfg.Duration = def.Duration
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	return cfg
}

// EpisodesChaos builds the deterministic fault overlay of the episodes
// experiment: an app-tier interference burst at 30% of the run, a DB VM
// crash at 55%, and a DB-edge jitter burst at 75% — spaced more than a
// FaultLag apart so every detected episode has exactly one plausible
// injected cause.
func EpisodesChaos(duration des.Time) *chaos.Schedule {
	d := float64(duration)
	s := &chaos.Schedule{}
	s.Add(chaos.Interference(des.Time(d*0.30), 45*des.Second, cluster.App, chaos.WholeTier, 2.5))
	s.Add(chaos.Crash(des.Time(d*0.55), cluster.DB, 0))
	s.Add(chaos.Jitter(des.Time(d*0.75), 40*des.Second, cluster.DB, 80*des.Millisecond))
	return s
}

// EpisodeCell is one (trace, controller) cell: the run, its attribution
// report, and the scores the tables aggregate.
type EpisodeCell struct {
	// Controller / Trace locate the cell.
	Controller string
	Trace      string
	// Res is the finished run; Report the attribution output.
	Res    *RunResult
	Report *forensics.Report

	// Episodes counts confirmed episodes; TotalDurS / MeanDepthMs /
	// MaxDepthMs / Area summarize their severity.
	Episodes    int
	TotalDurS   float64
	MeanDepthMs float64
	MaxDepthMs  float64
	Area        float64

	// FaultOverlapped counts episodes overlapping an injected fault
	// (ground truth); FaultAttributed those whose top cause is that
	// fault — recall. FaultTop counts episodes whose top cause is any
	// fault; FaultTopCorrect those where the blamed fault really
	// overlaps — precision.
	FaultOverlapped int
	FaultAttributed int
	FaultTop        int
	FaultTopCorrect int
}

// EvaluateEpisodes scores one forensics-armed run against its own fault
// windows. The attribution pipeline works purely from the flight
// recorder; the injected schedule is the ground truth it is graded on.
func EvaluateEpisodes(res *RunResult) EpisodeCell {
	ctrl := res.Controller
	if ctrl == "" {
		ctrl = res.Mode.String()
	}
	cell := EpisodeCell{Controller: ctrl, Trace: res.Trace, Res: res}
	if res.Forensics == nil {
		return cell
	}
	var rows []trace.BlameRow
	if res.Tracer != nil {
		rows = res.Tracer.BlameTable()
	}
	cell.Report = res.Forensics.Report(res.Trace+"/"+ctrl, rows)
	lag := res.Forensics.Config().FaultLag

	depthSum := 0.0
	for _, er := range cell.Report.Episodes {
		ep := er.Episode
		cell.Episodes++
		cell.TotalDurS += float64(ep.Duration())
		depthSum += ep.Depth * 1000
		if d := ep.Depth * 1000; d > cell.MaxDepthMs {
			cell.MaxDepthMs = d
		}
		cell.Area += ep.AreaOverSLO

		// Ground truth: which injected faults could have caused this
		// episode? Same influence rule the attributor uses — the window
		// extended by FaultLag past its end.
		overlapping := overlappingFaults(res.FaultWindows, ep, lag)
		if len(overlapping) > 0 {
			cell.FaultOverlapped++
		}
		top := er.TopCause()
		if top.Kind != forensics.CauseFault {
			continue
		}
		cell.FaultTop++
		for _, w := range overlapping {
			if math.Abs(float64(top.At-w.Start)) < 1e-9 {
				cell.FaultTopCorrect++
				cell.FaultAttributed++
				break
			}
		}
	}
	if cell.Episodes > 0 {
		cell.MeanDepthMs = depthSum / float64(cell.Episodes)
	}
	return cell
}

func overlappingFaults(windows []chaos.Window, ep forensics.Episode, lag des.Time) []chaos.Window {
	var out []chaos.Window
	for _, w := range windows {
		ext := w
		ext.End += lag
		if ext.Overlaps(ep.Onset, ep.Recovery) {
			out = append(out, w)
		}
	}
	return out
}

// RunEpisodes executes the matrix: every (trace, controller) cell with
// forensics, tracing (denser 1/8 head sampling so per-episode blame
// diffs have a populated p99 class), telemetry, and — when cfg.Chaos is
// set — the chaos overlay armed. Cells iterate traces outer,
// controllers inner, so output ordering is deterministic; RunMany's
// indexed slots keep it at any worker count. A config that fails
// Validate returns its error before any cell runs.
func RunEpisodes(cfg EpisodesConfig) ([]EpisodeCell, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	profile := AnalyticDCMProfile(cluster.DefaultConfig())
	var cfgs []RunConfig
	for _, tr := range cfg.Traces {
		for _, ctrl := range cfg.Controllers {
			fcfg := profiledConfig(scaling.EC2, profile) // Controller, not Mode, names the policy
			if cfg.Duration <= 300*des.Second {
				shortHorizonSCT(fcfg, 60*des.Second) // short smoke cells
			}
			rc := RunConfig{
				Controller: ctrl,
				TraceName:  tr,
				MaxUsers:   cfg.Users,
				Duration:   cfg.Duration,
				Seed:       cfg.Seed,
				ThinkTime:  3,
				Framework:  fcfg,
				Tracing:    &trace.Config{SampleRate: 1.0 / 8},
				Telemetry:  &TelemetryOptions{},
				Forensics:  &forensics.Config{},
				WarmupSkip: 30 * des.Second,
			}
			if cfg.Chaos {
				rc.Chaos = EpisodesChaos(cfg.Duration)
			}
			cfgs = append(cfgs, rc)
		}
	}
	results := RunMany(cfgs)
	cells := make([]EpisodeCell, len(results))
	for i, res := range results {
		cells[i] = EvaluateEpisodes(res)
	}
	return cells, nil
}

// EpisodeRank is one controller's aggregate standing: fewer, shorter,
// shallower episodes rank higher.
type EpisodeRank struct {
	Controller  string
	Episodes    int
	TotalDurS   float64
	MeanDepthMs float64
	TotalArea   float64
}

// RankEpisodes aggregates the cells per controller and orders them best
// (fewest episodes, then least total duration, then least area) first.
func RankEpisodes(cells []EpisodeCell) []EpisodeRank {
	byCtrl := map[string]*EpisodeRank{}
	var order []string
	depthSum := map[string]float64{}
	for _, c := range cells {
		r, ok := byCtrl[c.Controller]
		if !ok {
			r = &EpisodeRank{Controller: c.Controller}
			byCtrl[c.Controller] = r
			order = append(order, c.Controller)
		}
		r.Episodes += c.Episodes
		r.TotalDurS += c.TotalDurS
		r.TotalArea += c.Area
		depthSum[c.Controller] += c.MeanDepthMs * float64(c.Episodes)
	}
	out := make([]EpisodeRank, 0, len(order))
	for _, name := range order {
		r := *byCtrl[name]
		if r.Episodes > 0 {
			r.MeanDepthMs = depthSum[name] / float64(r.Episodes)
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Episodes != out[j].Episodes {
			return out[i].Episodes < out[j].Episodes
		}
		if out[i].TotalDurS != out[j].TotalDurS {
			return out[i].TotalDurS < out[j].TotalDurS
		}
		return out[i].TotalArea < out[j].TotalArea
	})
	return out
}

// AttributionScore is the matrix-wide precision/recall of blaming
// injected faults.
type AttributionScore struct {
	// Overlapped counts episodes overlapping an injected fault;
	// Attributed those correctly blamed on it (recall numerator).
	Overlapped, Attributed int
	// TopFault counts episodes whose top cause is any fault;
	// TopFaultCorrect those where the blamed fault really overlaps
	// (precision numerator).
	TopFault, TopFaultCorrect int
	Precision, Recall         float64
}

// ScoreAttribution totals the per-cell fault-attribution counts.
func ScoreAttribution(cells []EpisodeCell) AttributionScore {
	var s AttributionScore
	for _, c := range cells {
		s.Overlapped += c.FaultOverlapped
		s.Attributed += c.FaultAttributed
		s.TopFault += c.FaultTop
		s.TopFaultCorrect += c.FaultTopCorrect
	}
	if s.TopFault > 0 {
		s.Precision = float64(s.TopFaultCorrect) / float64(s.TopFault)
	}
	if s.Overlapped > 0 {
		s.Recall = float64(s.Attributed) / float64(s.Overlapped)
	}
	return s
}

// RenderEpisodes prints the per-cell table plus the attribution score.
func RenderEpisodes(w io.Writer, cells []EpisodeCell) {
	fmt.Fprintln(w, "Fluctuation episodes (detector: windowed p99 vs EWMA baseline, hysteresis)")
	fmt.Fprintf(w, "  %-16s %-20s %8s %8s %10s %10s %9s %7s %7s\n",
		"trace", "controller", "episodes", "dur", "mean depth", "max depth", "area", "flt ovl", "flt attr")
	for _, c := range cells {
		fmt.Fprintf(w, "  %-16s %-20s %8d %7.0fs %8.0fms %8.0fms %9.1f %7d %8d\n",
			c.Trace, c.Controller, c.Episodes, c.TotalDurS, c.MeanDepthMs, c.MaxDepthMs,
			c.Area, c.FaultOverlapped, c.FaultAttributed)
	}
	s := ScoreAttribution(cells)
	fmt.Fprintf(w, "  fault attribution: recall %d/%d = %.2f, precision %d/%d = %.2f\n",
		s.Attributed, s.Overlapped, s.Recall, s.TopFaultCorrect, s.TopFault, s.Precision)
}

// RenderEpisodeRanking prints the controller ranking, best first.
func RenderEpisodeRanking(w io.Writer, ranks []EpisodeRank) {
	fmt.Fprintln(w, "Controller ranking by fluctuation exposure (fewest/shortest/shallowest episodes)")
	fmt.Fprintf(w, "  %4s %-20s %8s %9s %10s %9s\n", "rank", "controller", "episodes", "total dur", "mean depth", "area")
	for i, r := range ranks {
		fmt.Fprintf(w, "  %4d %-20s %8d %8.0fs %8.0fms %9.1f\n",
			i+1, r.Controller, r.Episodes, r.TotalDurS, r.MeanDepthMs, r.TotalArea)
	}
}
