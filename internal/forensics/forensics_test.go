package forensics

import (
	"math"
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/trace"
)

func TestRingWrapAndSnapshot(t *testing.T) {
	r := newRing[int](4)
	if got := r.snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 1; i <= 3; i++ {
		r.push(i)
	}
	if got := r.snapshot(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("partial ring snapshot = %v", got)
	}
	for i := 4; i <= 11; i++ {
		r.push(i)
	}
	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("wrapped ring len = %d, want 4", len(got))
	}
	for i, want := range []int{8, 9, 10, 11} {
		if got[i] != want {
			t.Fatalf("wrapped ring snapshot = %v, want [8 9 10 11]", got)
		}
	}
	if r.len() != 4 || r.n.Load() != 11 {
		t.Fatalf("len/count = %d/%d, want 4/11", r.len(), r.n.Load())
	}
}

func TestRecorderRoutesAuditEvents(t *testing.T) {
	f := New(Config{})
	f.Rec.ObserveAudit(trace.AuditEvent{Time: 10, Kind: trace.AuditFault,
		Tier: "tomcat", Cause: "cpu-interference", Detail: "tomcat2", Value: 45})
	f.Rec.ObserveAudit(trace.AuditEvent{Time: 20, Kind: trace.AuditSCTEstimate,
		Tier: "mysql", Detail: "mysql1", Qlower: 10, Qupper: 20, Value: 400})
	f.Rec.ObserveAudit(trace.AuditEvent{Time: 30, Kind: trace.AuditScaleIn, Tier: "tomcat"})

	faults := f.Rec.Faults()
	if len(faults) != 1 || faults[0].Kind != "cpu-interference" || faults[0].End != 55 || faults[0].Target != "tomcat2" {
		t.Fatalf("faults = %+v", faults)
	}
	sct := f.Rec.SCT()
	if len(sct) != 1 || sct[0].Server != "mysql1" || sct[0].Qupper != 20 {
		t.Fatalf("sct = %+v", sct)
	}
	dec := f.Rec.Decisions()
	if len(dec) != 1 || dec[0].Kind != trace.AuditScaleIn {
		t.Fatalf("decisions = %+v", dec)
	}
	sn, de, fa, sc, sp := f.Rec.Counts()
	if sn != 0 || de != 1 || fa != 1 || sc != 1 || sp != 0 {
		t.Fatalf("counts = %d/%d/%d/%d/%d", sn, de, fa, sc, sp)
	}
}

func TestRecorderSpanSummary(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: 1})
	f := New(Config{})
	tr.SetOnEnd(f.Rec.ObserveSpan)
	root := tr.StartRequest("StoryOfTheDay", 1)
	if root == nil {
		t.Fatal("StartRequest returned nil at rate 1")
	}
	root.EnterServer("web1", 1)
	root.Admitted(1.5) // books 0.5 s SegQueue on web
	child := root.StartChild(2)
	child.EnterServer("tomcat1", 2)
	child.AddSeg(trace.SegPoolWait, 2, 4) // 2 s pool wait on app: the hot one
	child.Finish(4, trace.OutcomeOK)
	tr.EndRequest(root, 5, true)

	spans := f.Rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	s := spans[0]
	if s.Op != "StoryOfTheDay" || !s.OK || s.RT != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.HotTier != trace.TierApp || s.HotKind != trace.SegPoolWait || math.Abs(s.HotMs-2000) > 1e-6 {
		t.Fatalf("hot component = %v/%v %.1f ms, want tomcat/pool-wait 2000", s.HotTier, s.HotKind, s.HotMs)
	}
}

// TestNilPathZeroAlloc pins the unarmed hot path — nil recorder and
// detector receivers — at zero allocations, the same discipline the
// tracer and telemetry registries are held to.
func TestNilPathZeroAlloc(t *testing.T) {
	ev := trace.AuditEvent{Time: 1, Kind: trace.AuditScaleIn}
	snap := TierSnapshot{Time: 1}
	var nilR *Recorder
	var nilD *Detector
	if n := testing.AllocsPerRun(1000, func() {
		nilR.ObserveAudit(ev)
		nilR.RecordSnapshot(snap)
		nilR.ObserveSpan(nil)
		nilD.Observe(1, 0.1, true)
		nilD.Tick(1)
	}); n != 0 {
		t.Fatalf("nil forensics hot path allocates %.1f/op, want 0", n)
	}
}

// feedCalm pushes a steady 100 ms tail for the given seconds starting at
// t0, ticking once per second, and returns the next free second.
func feedCalm(d *Detector, t0 des.Time, seconds int) des.Time {
	for i := 0; i < seconds; i++ {
		now := t0 + des.Time(i)
		for j := 0; j < 20; j++ {
			d.Observe(now, 0.1, true)
		}
		d.Tick(now)
	}
	return t0 + des.Time(seconds)
}

func TestDetectorHysteresisAndMinDuration(t *testing.T) {
	// A breach lingers in the windowed p99 for the whole window span, so
	// the blip-vs-episode boundary is MinDuration relative to Window:
	// with a 2 s window a 2-tick blip clears ~4 s after onset.
	d := NewDetector(DetectorConfig{Window: 2 * des.Second, MinDuration: 6 * des.Second})
	now := feedCalm(d, 0, 30)
	if d.InEpisode() || d.Count() != 0 {
		t.Fatalf("calm phase: inEpisode=%v count=%d", d.InEpisode(), d.Count())
	}

	// A 2-tick blip: above onset (needs > max(2×0.1, 0.3) = 0.3 s) but
	// gone well before MinDuration — must be dropped, not counted.
	for i := 0; i < 2; i++ {
		for j := 0; j < 20; j++ {
			d.Observe(now, 1.0, true)
		}
		d.Tick(now)
		now++
	}
	if !d.InEpisode() {
		t.Fatal("blip did not open an episode")
	}
	// Feed calm long enough to flush the window and cross the clearing
	// threshold (< max(1.2×0.1, 0.25)).
	now = feedCalm(d, now, 8)
	if d.InEpisode() {
		t.Fatal("blip episode did not clear")
	}
	if d.Count() != 0 || len(d.Episodes()) != 0 {
		t.Fatalf("blip was kept: count=%d episodes=%v", d.Count(), d.Episodes())
	}

	// A real fluctuation: 8 s of 1.5 s tails.
	onsetAt := now
	for i := 0; i < 8; i++ {
		for j := 0; j < 20; j++ {
			d.Observe(now, 1.5, true)
		}
		d.Tick(now)
		now++
	}
	if !d.InEpisode() || d.Count() != 1 {
		t.Fatalf("fluctuation: inEpisode=%v count=%d", d.InEpisode(), d.Count())
	}
	now = feedCalm(d, now, 10)
	if d.InEpisode() {
		t.Fatal("fluctuation did not clear after calm returned")
	}
	eps := d.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes = %+v", eps)
	}
	ep := eps[0]
	if ep.Onset != onsetAt {
		t.Fatalf("onset = %v, want %v", ep.Onset, onsetAt)
	}
	if ep.Open || ep.Recovery <= ep.Onset || ep.Duration() < 8 {
		t.Fatalf("episode shape: %+v", ep)
	}
	if math.Abs(ep.PeakP99-1.5) > 1e-9 || ep.Depth < 1.3 || ep.Depth > 1.5 {
		t.Fatalf("peak/depth: %+v", ep)
	}
	// Area ≥ (1.5 − 0.3) × 8 s of full-height ticks.
	if ep.AreaOverSLO < 1.2*8 {
		t.Fatalf("area = %.2f, want ≥ %.2f", ep.AreaOverSLO, 1.2*8.0)
	}
	// Hysteresis: the counter must not double-count the same episode.
	if d.Count() != 1 {
		t.Fatalf("count = %d after clear, want 1", d.Count())
	}
}

func TestDetectorFinishMarksOpenEpisode(t *testing.T) {
	d := NewDetector(DetectorConfig{Window: 5 * des.Second})
	now := feedCalm(d, 0, 20)
	for i := 0; i < 5; i++ {
		for j := 0; j < 20; j++ {
			d.Observe(now, 2.0, true)
		}
		d.Tick(now)
		now++
	}
	d.Finish(now)
	eps := d.Episodes()
	if len(eps) != 1 || !eps[0].Open || eps[0].Recovery != now {
		t.Fatalf("open episode not sealed: %+v", eps)
	}
	if d.Count() != 1 {
		t.Fatalf("count = %d, want 1", d.Count())
	}
}

func TestDetectorEmptyWindowHoldsState(t *testing.T) {
	d := NewDetector(DetectorConfig{Window: 2 * des.Second})
	now := feedCalm(d, 0, 10)
	for i := 0; i < 4; i++ {
		for j := 0; j < 20; j++ {
			d.Observe(now, 2.0, true)
		}
		d.Tick(now)
		now++
	}
	if !d.InEpisode() {
		t.Fatal("no episode opened")
	}
	// A total stall: ticks with an empty window must not clear the
	// episode (a starving estimator is evidence of trouble, not calm).
	for i := 0; i < 5; i++ {
		d.Tick(now)
		now++
	}
	if !d.InEpisode() {
		t.Fatal("empty-window ticks cleared the episode")
	}
}

func TestAttributionRanksOverlappingFaultFirst(t *testing.T) {
	f := New(Config{})
	d := f.Det

	// Calm, then a fluctuation overlapping a recorded fault.
	now := feedCalm(d, 0, 60)
	f.Rec.ObserveAudit(trace.AuditEvent{Time: now - 2, Kind: trace.AuditFault,
		Tier: "tomcat", Cause: "cpu-interference", Detail: "tomcat1", Value: 20})
	// A pre-onset scale-in: a plausible but weaker suspect.
	f.Rec.ObserveAudit(trace.AuditEvent{Time: now - 10, Kind: trace.AuditScaleIn,
		Tier: "tomcat", Cause: "cpu low", Detail: "tomcat3"})
	// Population snapshots: flat, so no surge suspect.
	for ts := now - 40; ts < now+20; ts++ {
		f.Rec.RecordSnapshot(TierSnapshot{Time: ts, Clients: 1000})
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 20; j++ {
			d.Observe(now, 1.2, true)
		}
		d.Tick(now)
		now++
	}
	// A remedial launch during the episode.
	f.Rec.ObserveAudit(trace.AuditEvent{Time: now - 5, Kind: trace.AuditScaleOutLaunch,
		Tier: "tomcat", Cause: "cpu high", Detail: "tomcat4"})
	now = feedCalm(d, now, 15)
	d.Finish(now)

	rep := f.Report("test", nil)
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %d", len(rep.Episodes))
	}
	er := rep.Episodes[0]
	top := er.TopCause()
	if top.Kind != CauseFault || !strings.Contains(top.Detail, "cpu-interference") {
		t.Fatalf("top cause = %+v, want the overlapping fault", top)
	}
	if top.Score < 2.5 {
		t.Fatalf("fault score = %.2f, want ≥ 2.5", top.Score)
	}
	var sawDecision bool
	for _, c := range er.Causes {
		if c.Kind == CauseDecision {
			sawDecision = true
			if c.Score >= top.Score {
				t.Fatalf("decision (%.2f) outranked fault (%.2f)", c.Score, top.Score)
			}
		}
		if c.Kind == CauseWorkloadSurge {
			t.Fatalf("flat population produced a surge suspect: %+v", c)
		}
	}
	if !sawDecision {
		t.Fatalf("pre-onset scale-in missing from causes: %+v", er.Causes)
	}
	if len(er.Reactions) == 0 || !strings.Contains(er.Reactions[0], "scale-out-launch") {
		t.Fatalf("reactions = %v", er.Reactions)
	}
}

func TestAttributionSurgeWhenNoFault(t *testing.T) {
	f := New(Config{})
	d := f.Det
	now := feedCalm(d, 0, 60)
	for ts := now - 40; ts < now; ts++ {
		f.Rec.RecordSnapshot(TierSnapshot{Time: ts, Clients: 1000})
	}
	for i := 0; i < 10; i++ {
		f.Rec.RecordSnapshot(TierSnapshot{Time: now, Clients: 5000})
		for j := 0; j < 20; j++ {
			d.Observe(now, 1.2, true)
		}
		d.Tick(now)
		now++
	}
	now = feedCalm(d, now, 15)
	d.Finish(now)

	rep := f.Report("surge", nil)
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %d", len(rep.Episodes))
	}
	top := rep.Episodes[0].TopCause()
	if top.Kind != CauseWorkloadSurge {
		t.Fatalf("top cause = %+v, want workload-surge", top)
	}
}

func TestAttributionUnknownWhenRecorderSilent(t *testing.T) {
	f := New(Config{})
	d := f.Det
	now := feedCalm(d, 0, 30)
	for i := 0; i < 6; i++ {
		for j := 0; j < 20; j++ {
			d.Observe(now, 1.0, true)
		}
		d.Tick(now)
		now++
	}
	now = feedCalm(d, now, 12)
	d.Finish(now)
	rep := f.Report("silent", nil)
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %d", len(rep.Episodes))
	}
	cs := rep.Episodes[0].Causes
	if len(cs) != 1 || cs[0].Kind != CauseUnknown {
		t.Fatalf("causes = %+v, want the explicit unknown", cs)
	}
}

func TestReportWriters(t *testing.T) {
	f := New(Config{})
	d := f.Det
	now := feedCalm(d, 0, 40)
	f.Rec.ObserveAudit(trace.AuditEvent{Time: now - 1, Kind: trace.AuditFault,
		Tier: "mysql", Cause: "vm-crash", Detail: "mysql2", Value: 0})
	for i := 0; i < 8; i++ {
		for j := 0; j < 20; j++ {
			d.Observe(now, 1.8, true)
		}
		d.Tick(now)
		now++
	}
	now = feedCalm(d, now, 12)
	d.Finish(now)
	rep := f.Report("writers", nil)

	var buf strings.Builder
	if err := WriteASCII(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"episode #1", "cause 1:", "vm-crash", "p99 ["} {
		if !strings.Contains(out, want) {
			t.Fatalf("ASCII report missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	if !strings.Contains(js, `"kind": "fault"`) {
		t.Fatalf("JSON report lacks stringified cause kind:\n%.400s", js)
	}

	doc := trace.BuildChromeTrace(nil, nil)
	AppendChrome(&doc, rep)
	var sawSlice, sawInstant bool
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "episode" && ev.Ph == "X" {
			sawSlice = true
		}
		if ev.Cat == "episode" && ev.Ph == "i" {
			sawInstant = true
		}
	}
	if !sawSlice || !sawInstant {
		t.Fatalf("Perfetto track incomplete: slice=%v instant=%v", sawSlice, sawInstant)
	}
}

func TestAttributionShedIsContextNotRootCause(t *testing.T) {
	f := New(Config{})
	d := f.Det
	now := feedCalm(d, 0, 60)
	// Flat population, no faults, no decisions: the only evidence the
	// recorder holds is the shed stream during the fluctuation.
	for ts := now - 40; ts < now+20; ts++ {
		f.Rec.RecordSnapshot(TierSnapshot{Time: ts, Clients: 1000})
	}
	for i := 0; i < 10; i++ {
		f.Rec.ObserveShed(ShedRec{Time: now, Tier: "tomcat", Class: "browse"})
		f.Rec.ObserveShed(ShedRec{Time: now, Tier: "web", Class: "browse"})
		for j := 0; j < 20; j++ {
			d.Observe(now, 1.2, true)
		}
		d.Tick(now)
		now++
	}
	now = feedCalm(d, now, 15)
	d.Finish(now)

	rep := f.Report("shed", nil)
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %d", len(rep.Episodes))
	}
	var shed *Cause
	for i, c := range rep.Episodes[0].Causes {
		if c.Kind == CauseShed {
			shed = &rep.Episodes[0].Causes[i]
		}
	}
	if shed == nil {
		t.Fatalf("no shed cause in %+v", rep.Episodes[0].Causes)
	}
	if shed.Score != 0.5 {
		t.Fatalf("shed score = %.2f, want the fixed 0.5 context prior", shed.Score)
	}
	if !strings.Contains(shed.Detail, "x20") || !strings.Contains(shed.Detail, "tomcat") {
		t.Fatalf("shed detail = %q, want count and busiest tier", shed.Detail)
	}
}

func TestAttributionIgnoresSparseSheds(t *testing.T) {
	f := New(Config{})
	d := f.Det
	now := feedCalm(d, 0, 60)
	for ts := now - 40; ts < now+20; ts++ {
		f.Rec.RecordSnapshot(TierSnapshot{Time: ts, Clients: 1000})
	}
	for i := 0; i < 10; i++ {
		if i < 5 {
			f.Rec.ObserveShed(ShedRec{Time: now, Tier: "web", Class: "browse"})
		}
		for j := 0; j < 20; j++ {
			d.Observe(now, 1.2, true)
		}
		d.Tick(now)
		now++
	}
	now = feedCalm(d, now, 15)
	d.Finish(now)

	rep := f.Report("sparse", nil)
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %d", len(rep.Episodes))
	}
	for _, c := range rep.Episodes[0].Causes {
		if c.Kind == CauseShed {
			t.Fatalf("%d sheds (< the 10-drop floor) produced a cause: %+v", 5, c)
		}
	}
}

// BenchmarkDetectorSecond is one simulated second of the paper cell's
// detector load: ≈ 1 300 completions observed, then the tick that reads
// the 10 s window's p99.
func BenchmarkDetectorSecond(b *testing.B) {
	d := NewDetector(DetectorConfig{})
	second := func(now des.Time) {
		for j := 0; j < 1300; j++ {
			d.Observe(now+des.Time(j)/1300, 0.01+float64(j%97)*1e-4, true)
		}
		d.Tick(now + 1)
	}
	for i := 0; i < 20; i++ {
		second(des.Time(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		second(des.Time(20 + i))
	}
}
