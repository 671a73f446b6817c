package experiment

import (
	"bytes"
	"strings"
	"testing"

	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/workload"
)

// tracedShortRun is shortRun with full-rate tracing armed — every request
// sampled, so the observation machinery gets maximum exercise.
func tracedShortRun(mode scaling.Mode, traceName string, seed uint64) RunConfig {
	cfg := shortRun(mode, traceName, seed)
	cfg.Tracing = &trace.Config{SampleRate: 1}
	return cfg
}

func TestTracedRunIsByteIdenticalToUntraced(t *testing.T) {
	// Tracing is pure observation: at the canonical head-sampling rate
	// and at SampleRate 1 alike, the traced run's client-observed
	// timeline must match the untraced run byte for byte.
	plain := Run(shortRun(scaling.ConScale, workload.LargeVariations, 1))
	if plain.Tracer != nil || plain.Audit != nil {
		t.Fatal("untraced run grew a tracer")
	}
	var a bytes.Buffer
	if err := WriteTimelineCSV(&a, plain); err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{1.0 / 64, 1} {
		cfg := shortRun(scaling.ConScale, workload.LargeVariations, 1)
		cfg.Tracing = &trace.Config{SampleRate: rate}
		traced := Run(cfg)

		if plain.Goodput != traced.Goodput || plain.P99 != traced.P99 || plain.ErrorRate != traced.ErrorRate {
			t.Fatalf("rate %v: traced run diverged: goodput %d vs %d, p99 %v vs %v",
				rate, plain.Goodput, traced.Goodput, plain.P99, traced.P99)
		}
		var b bytes.Buffer
		if err := WriteTimelineCSV(&b, traced); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("rate %v: traced timeline CSV differs from untraced", rate)
		}

		if traced.Tracer == nil {
			t.Fatalf("rate %v: traced run has no tracer", rate)
		}
		started, sampled, completed, _ := traced.Tracer.Stats()
		if sampled == 0 || (rate == 1) != (sampled == started) {
			t.Fatalf("rate %v sampled %d of %d requests", rate, sampled, started)
		}
		if completed == 0 {
			t.Fatalf("rate %v: no spans completed", rate)
		}
	}
}

func TestTracedRunBlameAccountsForResponseTime(t *testing.T) {
	res := Run(tracedShortRun(scaling.ConScale, workload.LargeVariations, 1))
	rows := res.Tracer.BlameTable()
	if len(rows) == 0 {
		t.Fatal("no blame rows")
	}
	classes := map[string]bool{}
	for _, r := range rows {
		classes[r.Class] = true
		if r.Requests <= 0 || r.RT <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		// The decomposition must account for (almost) the whole response
		// time: every wait and service segment is attributed somewhere, and
		// only scheduling epsilons fall through.
		if tot := r.Sum(); tot < 0.90*r.RT || tot > 1.001*r.RT {
			t.Fatalf("window %v class %s: components %.4fs vs rt %.4fs", r.Window, r.Class, tot, r.RT)
		}
		for tier := trace.TierID(0); tier < trace.NumTiers; tier++ {
			if ws := r.WaitShare(tier); ws < 0 || ws > 1 {
				t.Fatalf("wait share %v out of range", ws)
			}
		}
	}
	for _, want := range []string{"mean", "p50", "p95", "p99"} {
		if !classes[want] {
			t.Fatalf("blame table missing class %q", want)
		}
	}
	if _, ok := trace.BlameSummary(rows, "p95", 0, ShortDuration); !ok {
		t.Fatal("p95 summary over the whole run came up empty")
	}
}

func TestAuditTrailLinesUpWithClusterState(t *testing.T) {
	res := Run(tracedShortRun(scaling.ConScale, workload.LargeVariations, 1))
	if len(res.Audit) == 0 {
		t.Fatal("no audit events")
	}

	// Index audit events by (kind, time) for the lineup checks.
	byKind := map[trace.AuditKind][]trace.AuditEvent{}
	for _, ev := range res.Audit {
		byKind[ev.Kind] = append(byKind[ev.Kind], ev)
	}
	find := func(kind trace.AuditKind, at float64, tier string) bool {
		for _, ev := range byKind[kind] {
			if float64(ev.Time) == at && (tier == "" || ev.Tier == tier) {
				return true
			}
		}
		return false
	}

	// Every scaling-log entry must have an audit counterpart at the same
	// simulated time with a cause annotation.
	for _, e := range res.Events {
		at, tier := float64(e.Time), e.Tier.String()
		var ok bool
		switch {
		case e.Kind == scaling.ScaleOut && strings.HasSuffix(e.Detail, " ready"):
			ok = find(trace.AuditScaleOutReady, at, tier)
		case e.Kind == scaling.ScaleOut && strings.HasPrefix(e.Detail, "scale-up"):
			ok = find(trace.AuditScaleUp, at, tier)
		case e.Kind == scaling.ScaleOut:
			ok = find(trace.AuditThresholdTrigger, at, tier)
		case e.Kind == scaling.ScaleIn:
			ok = find(trace.AuditScaleIn, at, tier)
		case e.Kind == scaling.SoftAdapt:
			ok = find(trace.AuditPoolResize, at, "")
		case e.Kind == scaling.Repair:
			ok = find(trace.AuditRepair, at, tier)
		default:
			t.Fatalf("unmapped event kind %v", e.Kind)
		}
		if !ok {
			t.Errorf("scaling event %v/%s at %v has no audit counterpart", e.Kind, e.Detail, e.Time)
		}
	}
	for _, ev := range res.Audit {
		if ev.Cause == "" {
			t.Errorf("audit event %v at %v has no cause", ev.Kind, ev.Time)
		}
	}

	// Every audited VM arrival must be a real scaling-log entry too — the
	// audit trail cannot invent cluster-state changes.
	for _, ev := range byKind[trace.AuditScaleOutReady] {
		matched := false
		for _, e := range res.Events {
			if e.Kind == scaling.ScaleOut && e.Time == ev.Time && e.Tier.String() == ev.Tier {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("audit %v at %v matches no scaling event", ev.Kind, ev.Time)
		}
	}

	// The last pool-resize decisions must equal the final soft-resource
	// settings the timeline recorded.
	last := map[string]float64{}
	for _, ev := range byKind[trace.AuditPoolResize] {
		last[ev.Detail] = ev.Value
	}
	if len(last) == 0 {
		t.Fatal("ConScale run recorded no pool resizes")
	}
	final := res.SoftHistory[len(res.SoftHistory)-1]
	if v, ok := last["app threads"]; ok && int(v) != final[0] {
		t.Errorf("last audited app-thread resize %v != final setting %d", v, final[0])
	}
	if v, ok := last["db conns per app"]; ok && int(v) != final[1] {
		t.Errorf("last audited db-conn resize %v != final setting %d", v, final[1])
	}
}

func TestBlameRunsShort(t *testing.T) {
	results := blameResults(shrink(BlameStudy(1), ShortDuration, 5000).Run(nil))
	if len(results) != 3 {
		t.Fatalf("blame compares %d controllers", len(results))
	}
	for _, b := range results {
		if b.Res.Tracer == nil || len(b.Rows) == 0 {
			t.Fatalf("%s: no traced blame data", b.Mode)
		}
		if len(b.Res.Audit) == 0 {
			t.Fatalf("%s: empty audit trail", b.Mode)
		}
		if len(b.Res.Tracer.Slowest()) == 0 {
			t.Fatalf("%s: empty slowest-request reservoir", b.Mode)
		}
	}
	// The load burst must force at least the baseline controller through a
	// scale-out transition, or the blame comparison has nothing to show.
	if _, _, ok := results[0].TransitionWindow(); !ok {
		t.Fatal("EC2 run never scaled out the app tier")
	}

	var buf bytes.Buffer
	renderBlame(&buf, results)
	out := buf.String()
	for _, want := range []string{"latency blame", "ec2-autoscaling", "conscale", "app pool-wait", "audit events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
