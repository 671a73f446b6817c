package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/telemetry"
	"conscale/internal/trace"
	"conscale/internal/workload"
)

// sloSamples emits rps samples per second over [from, to) with the given
// fraction of them bad (slow responses).
func sloSamples(dst []workload.Sample, from, to, rps int, badFrac float64) []workload.Sample {
	for sec := from; sec < to; sec++ {
		for i := 0; i < rps; i++ {
			rt := 0.05
			if float64(i) < badFrac*float64(rps) {
				rt = 0.8
			}
			dst = append(dst, workload.Sample{
				Finish: des.Time(sec) + des.Time(i)/des.Time(rps),
				RT:     rt,
				OK:     true,
			})
		}
	}
	return dst
}

// sloTruth bins samples into the per-second ground truth the way Run's
// probe does, each classed against cfg's target.
func sloTruth(samples []workload.Sample, cfg telemetry.SLOConfig) []SLOSecond {
	var truth []SLOSecond
	for _, s := range samples {
		truth = observeTruth(truth, s.Finish, !s.OK || s.RT > cfg.Target)
	}
	return truth
}

func TestViolationEpisodesSustainedBurst(t *testing.T) {
	cfg := telemetry.DefaultSLOConfig()
	var s []workload.Sample
	s = sloSamples(s, 0, 40, 20, 0)
	s = sloSamples(s, 40, 70, 20, 0.5) // 50% bad >> 4% alerting rate
	s = sloSamples(s, 70, 120, 20, 0)
	eps := ViolationEpisodes(sloTruth(s, cfg), cfg)
	if len(eps) != 1 {
		t.Fatalf("want 1 episode, got %v", eps)
	}
	if eps[0].Start < 38 || eps[0].Start > 42 {
		t.Errorf("episode start %v, want ~40", eps[0].Start)
	}
	if eps[0].End < 70 || eps[0].End > 82 {
		t.Errorf("episode end %v, want within one window of 70", eps[0].End)
	}
}

func TestViolationEpisodesMergeAndClean(t *testing.T) {
	cfg := telemetry.DefaultSLOConfig()

	// Two bad blocks whose violating ranges are separated by a short gap
	// merge into one episode.
	var s []workload.Sample
	s = sloSamples(s, 0, 40, 20, 0)
	s = sloSamples(s, 40, 43, 20, 0.5)
	s = sloSamples(s, 43, 56, 20, 0)
	s = sloSamples(s, 56, 59, 20, 0.5)
	s = sloSamples(s, 59, 120, 20, 0)
	if eps := ViolationEpisodes(sloTruth(s, cfg), cfg); len(eps) != 1 {
		t.Errorf("gapped blocks did not merge: %v", eps)
	}

	// A clean stream and an empty stream have no episodes.
	if eps := ViolationEpisodes(sloTruth(sloSamples(nil, 0, 60, 20, 0), cfg), cfg); eps != nil {
		t.Errorf("clean stream produced episodes: %v", eps)
	}
	if eps := ViolationEpisodes(nil, cfg); eps != nil {
		t.Errorf("empty stream produced episodes: %v", eps)
	}
}

// TestEvaluateSLOLeadTime wires a synthetic run end to end: a monitor fed
// the same stream the ground truth sees, plus a CPU trigger planted in the
// audit trail after the burst begins. The row must score one detected
// episode with a positive lead.
func TestEvaluateSLOLeadTime(t *testing.T) {
	cfg := telemetry.DefaultSLOConfig()
	mon := telemetry.NewSLOMonitor(cfg)

	var samples []workload.Sample
	samples = sloSamples(samples, 0, 60, 50, 0)
	samples = sloSamples(samples, 60, 150, 50, 0.5)
	samples = sloSamples(samples, 150, 240, 50, 0)
	for _, s := range samples {
		mon.Observe(s.Finish, s.RT, s.OK)
	}
	alerts := mon.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("monitor raised %d alerts, want 1", len(alerts))
	}

	cpuAt := des.Time(90)
	res := &RunResult{
		Trace: workload.LargeVariations,
		Mode:  scaling.EC2,
		SLO:   mon,
		Audit: []trace.AuditEvent{
			{Time: 30, Kind: trace.AuditPoolResize, Cause: "unrelated"},
			{Time: cpuAt, Kind: trace.AuditThresholdTrigger, Tier: "app", Cause: "cpu=0.85 > 0.80 for 3 checks"},
			{Time: 95, Kind: trace.AuditThresholdTrigger, Tier: "app", Cause: "sla trigger: p95 above target"},
		},
	}
	// The ground truth travels on the result.
	res.SLOTruth = sloTruth(samples, cfg)

	row := EvaluateSLO(res)
	if row.Episodes != 1 || row.Alerts != 1 {
		t.Fatalf("episodes=%d alerts=%d, want 1/1", row.Episodes, row.Alerts)
	}
	if row.Detected != 1 || row.TruePositives != 1 {
		t.Fatalf("detected=%d tp=%d, want 1/1", row.Detected, row.TruePositives)
	}
	if row.Precision != 1 || row.Recall != 1 {
		t.Fatalf("precision=%v recall=%v, want 1/1", row.Precision, row.Recall)
	}
	if row.LeadCount != 1 {
		t.Fatalf("lead count %d, want 1", row.LeadCount)
	}
	wantLead := float64(cpuAt - alerts[0].Start)
	if wantLead <= 0 {
		t.Fatalf("synthetic alert at %v did not precede CPU trigger at %v", alerts[0].Start, cpuAt)
	}
	if row.MeanLead != wantLead || row.MinLead != wantLead || row.MaxLead != wantLead {
		t.Fatalf("lead %v/%v/%v, want %v", row.MeanLead, row.MinLead, row.MaxLead, wantLead)
	}
	if row.SLOOnly != 0 {
		t.Fatalf("SLOOnly=%d with a CPU trigger present", row.SLOOnly)
	}
}

func TestEvaluateSLONoTelemetry(t *testing.T) {
	row := EvaluateSLO(&RunResult{Trace: "t", Mode: scaling.EC2})
	if row.Episodes != 0 || row.Alerts != 0 || row.LeadCount != 0 {
		t.Fatalf("bare result scored nonzero: %+v", row)
	}
}

// TestSLORunsShort drives the whole matrix at test size and checks the
// scored rows are internally consistent and the render holds together.
func TestSLORunsShort(t *testing.T) {
	runs := SLORunsSized(1, ShortDuration, 5000, nil)
	traces := workload.Names()
	if len(runs) != len(traces)*3 {
		t.Fatalf("got %d runs, want %d", len(runs), len(traces)*3)
	}
	totalEpisodes, totalAlerts := 0, 0
	for i, r := range runs {
		wantTrace := traces[i/3]
		if r.Trace != wantTrace {
			t.Fatalf("run %d trace %s, want %s", i, r.Trace, wantTrace)
		}
		if r.Res.SLO == nil || r.Res.Registry == nil {
			t.Fatalf("%s/%s: telemetry layer missing", r.Trace, r.Mode)
		}
		if r.Res.SLOTruth == nil {
			t.Fatalf("%s/%s: no ground truth kept", r.Trace, r.Mode)
		}
		row := r.Row
		if row.Detected > row.Episodes || row.TruePositives > row.Alerts {
			t.Fatalf("%s/%s: inconsistent counts %+v", r.Trace, r.Mode, row)
		}
		if row.Precision < 0 || row.Precision > 1 || row.Recall < 0 || row.Recall > 1 {
			t.Fatalf("%s/%s: precision/recall out of range %+v", r.Trace, r.Mode, row)
		}
		if row.LeadCount > 0 && (math.IsNaN(row.MeanLead) || row.MinLead > row.MaxLead) {
			t.Fatalf("%s/%s: degenerate lead stats %+v", r.Trace, r.Mode, row)
		}
		totalEpisodes += row.Episodes
		totalAlerts += row.Alerts
	}
	// The bursty traces must actually hurt somebody: across the matrix the
	// ground truth and the monitor both have to fire.
	if totalEpisodes == 0 {
		t.Fatal("no ground-truth violation episodes anywhere in the matrix")
	}
	if totalAlerts == 0 {
		t.Fatal("burn-rate monitor never fired anywhere in the matrix")
	}

	var buf bytes.Buffer
	RenderSLO(&buf, runs)
	out := buf.String()
	for _, want := range []string{"burn-rate", "mean lead", "conscale", "ec2-autoscaling"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
