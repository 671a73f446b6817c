package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/telemetry"
	"conscale/internal/trace"
	"conscale/internal/workload"
)

// The SLO detection-lead-time experiment: run every bursty trace under EC2,
// DCM, and ConScale with the telemetry layer armed, then score the
// burn-rate alerts against (a) ground-truth SLA-violation episodes computed
// from the exact client sample stream and (b) the CPU threshold triggers
// the controllers themselves act on. The question it answers is the paper's
// motivation read through an operator's eyes: how many seconds of warning
// does a client-side burn-rate monitor buy over the 80% CPU rule that
// drives scaling?

// SLOEpisode is one ground-truth SLA-violation interval.
type SLOEpisode struct {
	Start, End des.Time
}

// sloPreSlack is how much earlier than an episode's start an alert or CPU
// trigger may fire and still be credited to it: the burn-rate windows see
// the leading edge of a burst before the windowed ground truth crosses its
// own threshold.
const sloPreSlack = 15 * des.Second

// SLOSecond is one second of a run's client ground truth: the requests
// that finished in it, and how many of them were bad — failed, or slower
// than the SLO target.
type SLOSecond struct {
	Total, Bad int
}

// observeTruth counts one completion at now into the per-second ground
// truth, growing it to now's second.
func observeTruth(truth []SLOSecond, now des.Time, bad bool) []SLOSecond {
	sec := int(now)
	for len(truth) <= sec {
		truth = append(truth, SLOSecond{})
	}
	truth[sec].Total++
	if bad {
		truth[sec].Bad++
	}
	return truth
}

// ViolationEpisodes derives the ground-truth SLA-violation intervals from a
// run's per-second client ledger, every request already classed against
// cfg.Target: seconds whose 10 s windowed bad-request fraction reaches the
// alerting consumption rate Burn × (1 − Objective), merged across gaps of
// up to 5 s, dropping episodes shorter than 3 s. Using the same badness
// definition and rate as the monitor makes the comparison about *detection
// latency*, not about disagreeing definitions of "violation".
func ViolationEpisodes(truth []SLOSecond, cfg telemetry.SLOConfig) []SLOEpisode {
	if len(truth) == 0 {
		return nil
	}
	maxSec := len(truth) - 1
	const window = 10
	threshold := cfg.Burn * (1 - cfg.Objective)
	violating := make([]bool, maxSec+1)
	sumBad, sumTotal := 0, 0
	for sec := 0; sec <= maxSec; sec++ {
		sumBad += truth[sec].Bad
		sumTotal += truth[sec].Total
		if sec >= window {
			sumBad -= truth[sec-window].Bad
			sumTotal -= truth[sec-window].Total
		}
		violating[sec] = sumTotal > 0 && float64(sumBad)/float64(sumTotal) >= threshold
	}
	var eps []SLOEpisode
	const mergeGap, minLen = 5, 3
	start := -1
	lastTrue := -1
	for sec := 0; sec <= maxSec+mergeGap+1; sec++ {
		v := sec <= maxSec && violating[sec]
		switch {
		case v && start < 0:
			start = sec
			lastTrue = sec
		case v:
			lastTrue = sec
		case start >= 0 && sec-lastTrue > mergeGap:
			if lastTrue-start+1 >= minLen {
				eps = append(eps, SLOEpisode{Start: des.Time(start), End: des.Time(lastTrue + 1)})
			}
			start = -1
		}
	}
	return eps
}

// SLORow scores one run's burn-rate alerting against its ground truth.
type SLORow struct {
	Trace string
	Mode  scaling.Mode

	// Episodes is the ground-truth violation count; Alerts the raised
	// burn-rate alert count.
	Episodes, Alerts int
	// Detected counts episodes matched by at least one alert (recall
	// numerator); TruePositives counts alerts matched to at least one
	// episode (precision numerator).
	Detected, TruePositives int
	Precision, Recall       float64

	// MeanLead / MinLead / MaxLead summarise, over episodes where both
	// signals fired, how many seconds the burn-rate alert preceded the
	// first CPU threshold trigger (positive = alert first). LeadCount is
	// how many episodes contributed.
	MeanLead, MinLead, MaxLead float64
	LeadCount                  int
	// SLOOnly counts episodes the burn-rate alert caught but no CPU
	// trigger ever fired for — invisible to the threshold rule.
	SLOOnly int
}

// EvaluateSLO scores a telemetry-armed run. The run must have been executed
// with RunConfig.Telemetry (for the monitor and the ground truth) and
// RunConfig.Tracing (for the audit trail carrying the CPU triggers).
func EvaluateSLO(res *RunResult) SLORow {
	row := SLORow{Trace: res.Trace, Mode: res.Mode}
	if res.SLO == nil {
		return row
	}
	episodes := ViolationEpisodes(res.SLOTruth, res.SLO.Config())
	alerts := res.SLO.Alerts()
	var cpuTriggers []des.Time
	for _, e := range res.Audit {
		if e.Kind == trace.AuditThresholdTrigger && strings.HasPrefix(e.Cause, "cpu=") {
			cpuTriggers = append(cpuTriggers, e.Time)
		}
	}
	row.Episodes = len(episodes)
	row.Alerts = len(alerts)

	matched := func(a telemetry.Alert, ep SLOEpisode) bool {
		return a.Start < ep.End && a.End > ep.Start-sloPreSlack
	}
	for _, a := range alerts {
		for _, ep := range episodes {
			if matched(a, ep) {
				row.TruePositives++
				break
			}
		}
	}
	row.MinLead = math.Inf(1)
	row.MaxLead = math.Inf(-1)
	for _, ep := range episodes {
		var alertAt des.Time = -1
		for _, a := range alerts {
			if matched(a, ep) {
				alertAt = a.Start
				break
			}
		}
		if alertAt < 0 {
			continue
		}
		row.Detected++
		var cpuAt des.Time = -1
		for _, t := range cpuTriggers {
			if t >= ep.Start-sloPreSlack && t < ep.End {
				cpuAt = t
				break
			}
		}
		if cpuAt < 0 {
			row.SLOOnly++
			continue
		}
		lead := float64(cpuAt - alertAt)
		row.MeanLead += lead
		row.LeadCount++
		if lead < row.MinLead {
			row.MinLead = lead
		}
		if lead > row.MaxLead {
			row.MaxLead = lead
		}
	}
	if row.LeadCount > 0 {
		row.MeanLead /= float64(row.LeadCount)
	} else {
		row.MinLead, row.MaxLead = math.NaN(), math.NaN()
	}
	if row.Alerts > 0 {
		row.Precision = float64(row.TruePositives) / float64(row.Alerts)
	}
	if row.Episodes > 0 {
		row.Recall = float64(row.Detected) / float64(row.Episodes)
	}
	return row
}

// SLOStudy runs every bursty trace under the three controllers at the
// paper's size, with telemetry and tracing armed. Traces iterate in
// canonical order, controllers in chaos order, each cell keyed by its
// trace. The headline (large-variations) trace's cells stream their
// OpenMetrics scrape timelines to slo_scrape_<controller>.om, a file any
// Prometheus-compatible tool can replay. It prints the detection table
// and writes it as slo_leadtime.csv; lead times are empty where no
// episode saw both signals.
func SLOStudy(seed uint64) Study {
	profile := AnalyticDCMProfile(cluster.DefaultConfig())
	var cells []Cell
	for _, tr := range workload.Names() {
		for _, mode := range paperModes {
			cfg := paperRun(mode, tr, seed)
			cfg.Telemetry = &TelemetryOptions{}
			// The audit trail carries the CPU triggers and SLO transitions;
			// light head sampling keeps the span machinery out of the way.
			cfg.Tracing = &trace.Config{SampleRate: 1.0 / 64}
			cfg.Framework = profiledConfig(mode, profile)
			cell := Cell{Key: tr, Config: cfg}
			if tr == workload.LargeVariations {
				cell.Scrape = "slo_scrape_" + sanitize(mode.String()) + ".om"
			}
			cells = append(cells, cell)
		}
	}
	return Study{Cells: cells, Fold: foldSLO}
}

func foldSLO(_ []Cell, results []*RunResult) Outcome {
	rows := make([]SLORow, len(results))
	for i, res := range results {
		rows[i] = EvaluateSLO(res)
	}
	return Outcome{
		Summary: sticky(func(w io.Writer) { renderSLO(w, rows) }),
		Artifacts: []Artifact{{"slo_leadtime.csv", sticky(func(w io.Writer) {
			fmt.Fprintln(w, "trace,controller,episodes,alerts,detected,true_positives,precision,recall,lead_count,mean_lead_s,min_lead_s,max_lead_s,slo_only")
			for _, r := range rows {
				lead, lo, hi := "", "", ""
				if r.LeadCount > 0 {
					lead = fmt.Sprintf("%.1f", r.MeanLead)
					lo = fmt.Sprintf("%.1f", r.MinLead)
					hi = fmt.Sprintf("%.1f", r.MaxLead)
				}
				fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%.3f,%.3f,%d,%s,%s,%s,%d\n",
					r.Trace, r.Mode, r.Episodes, r.Alerts, r.Detected,
					r.TruePositives, r.Precision, r.Recall,
					r.LeadCount, lead, lo, hi, r.SLOOnly)
			}
		})}},
	}
}

// renderSLO prints the detection comparison table.
func renderSLO(w io.Writer, rows []SLORow) {
	fmt.Fprintln(w, "SLO burn-rate detection vs 80% CPU threshold (p99 < 300 ms objective)")
	fmt.Fprintf(w, "  %-16s %-16s %8s %7s %5s %5s %9s %8s %8s\n",
		"trace", "controller", "episodes", "alerts", "prec", "rec", "mean lead", "min", "max")
	for _, r := range rows {
		lead, lo, hi := "n/a", "", ""
		if r.LeadCount > 0 {
			lead = fmt.Sprintf("%+.1fs", r.MeanLead)
			lo = fmt.Sprintf("%+.0fs", r.MinLead)
			hi = fmt.Sprintf("%+.0fs", r.MaxLead)
		}
		fmt.Fprintf(w, "  %-16s %-16s %8d %7d %5.2f %5.2f %9s %8s %8s\n",
			r.Trace, r.Mode, r.Episodes, r.Alerts,
			r.Precision, r.Recall, lead, lo, hi)
	}
}
