package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"conscale/internal/des"
)

// endToEnd plays one synthetic request through a tracer: net edge, queue
// wait, CPU burst, a pool-waited downstream DB call with disk service, and
// a dwell, ending at start+rt.
func endToEnd(tr *Tracer, start, rt des.Time, ok bool) *Span {
	root := tr.StartRequest("browse", start)
	if root == nil {
		return nil
	}
	root.AddSeg(SegNet, start, start+1)
	root.EnterServer("web1", start+1)
	root.NotePick("lb-web", 2)
	root.Admitted(start + 2)
	root.AddProc(SegCPUWait, SegCPU, start+2, 1, start+4)
	root.AddSeg(SegPoolWait, start+4, start+5)
	child := root.StartChild(start + 5)
	child.EnterServer("mysql1", start+5)
	child.Admitted(start + 5)
	child.AddProc(SegDiskWait, SegDisk, start+5, 1, start+7)
	child.Finish(start+7, OutcomeOK)
	root.AddSeg(SegDwell, start+7, start+8)
	tr.EndRequest(root, start+rt, ok)
	return root
}

func TestNilTracerHotPathIsAllocationFree(t *testing.T) {
	var tr *Tracer
	hot := func() {
		sp := tr.StartRequest("browse", 1)
		sp.EnterServer("web1", 1)
		sp.NotePick("lb", 3)
		sp.Admitted(2)
		sp.AddSeg(SegDwell, 2, 3)
		sp.AddProc(SegCPUWait, SegCPU, 2, 1, 3)
		child := sp.StartChild(3)
		child.EnterServer("mysql1", 3)
		child.Finish(4, OutcomeOK)
		sp.Finish(4, OutcomeOK)
		tr.EndRequest(sp, 4, true)
	}
	if allocs := testing.AllocsPerRun(1000, hot); allocs != 0 {
		t.Fatalf("nil tracer hot path allocates %.1f/op, want 0", allocs)
	}
}

func TestSamplingIsDeterministicPerSeed(t *testing.T) {
	a := New(Config{Seed: 9, SampleRate: 0.5})
	b := New(Config{Seed: 9, SampleRate: 0.5})
	c := New(Config{Seed: 10, SampleRate: 0.5})
	var pa, pb, pc []bool
	for i := 0; i < 256; i++ {
		pa = append(pa, a.StartRequest("x", des.Time(i)) != nil)
		pb = append(pb, b.StartRequest("x", des.Time(i)) != nil)
		pc = append(pc, c.StartRequest("x", des.Time(i)) != nil)
	}
	same, diff := true, false
	for i := range pa {
		same = same && pa[i] == pb[i]
		diff = diff || pa[i] != pc[i]
	}
	if !same {
		t.Fatal("same seed sampled different requests")
	}
	if !diff {
		t.Fatal("different seeds sampled identically")
	}
}

func TestReservoirKeepsSlowestRequests(t *testing.T) {
	tr := New(Config{SampleRate: 1, Reservoir: 3})
	for _, rt := range []des.Time{10, 30, 20, 50, 9, 40, 15} {
		endToEnd(tr, 100, rt, true)
	}
	slow := tr.Slowest()
	if len(slow) != 3 {
		t.Fatalf("reservoir holds %d trees, want 3", len(slow))
	}
	want := []des.Time{50, 40, 30}
	for i, sp := range slow {
		if sp.RT() != want[i] {
			t.Fatalf("slowest[%d].RT = %v, want %v", i, sp.RT(), want[i])
		}
	}
}

func TestSpanPoolRecyclesTrees(t *testing.T) {
	tr := New(Config{SampleRate: 1, Reservoir: -1}) // keep nothing
	root := tr.StartRequest("a", 0)
	child := root.StartChild(1)
	child.AddSeg(SegCPU, 1, 2)
	tr.EndRequest(root, 3, true)

	// Both spans must come back from the pool, fully reset.
	again := tr.StartRequest("b", 10)
	kid := again.StartChild(11)
	if again != root && again != child {
		t.Fatal("root span not recycled")
	}
	if kid != root && kid != child {
		t.Fatal("child span not recycled")
	}
	if len(kid.Segs) != 0 || len(kid.Children) != 0 || kid.Outcome != OutcomeOpen {
		t.Fatalf("recycled span not reset: %+v", kid)
	}
	if kid.Admit >= 0 {
		t.Fatal("recycled span claims prior admission")
	}
}

func TestAbandonedQueueWaitIsBooked(t *testing.T) {
	// A request dropped before thread-pool admission spent its server life
	// in the accept queue; the decomposition must say so.
	tr := New(Config{SampleRate: 1})
	sp := tr.StartRequest("browse", 0)
	sp.EnterServer("web1", 1)
	tr.EndRequest(sp, 6, false)
	if sp.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %v", sp.Outcome)
	}
	var queued des.Time
	for _, seg := range sp.Segs {
		if seg.Kind == SegQueue {
			queued += seg.End - seg.Start
		}
	}
	if queued != 5 {
		t.Fatalf("booked queue wait = %v, want 5", queued)
	}
}

func TestSegmentsClampedToSpanEnd(t *testing.T) {
	// Dwell is booked to its full scheduled length at entry; a kill mid-
	// dwell must not leave the segment claiming time past the span's end.
	tr := New(Config{SampleRate: 1})
	sp := tr.StartRequest("browse", 0)
	sp.EnterServer("web1", 0)
	sp.Admitted(0)
	sp.AddSeg(SegDwell, 1, 10)
	tr.EndRequest(sp, 4, false)
	for _, seg := range sp.Segs {
		if seg.End > sp.End || seg.Start > seg.End {
			t.Fatalf("segment %+v overshoots span end %v", seg, sp.End)
		}
	}
}

func TestBlameTableWindowsAndClasses(t *testing.T) {
	tr := New(Config{SampleRate: 1, BlameWindow: 10 * des.Second})
	// 40 requests ending in window [0,10), 10 in [10,20).
	for i := 0; i < 40; i++ {
		endToEnd(tr, 0, des.Time(1+i)/10, true)
	}
	for i := 0; i < 10; i++ {
		endToEnd(tr, 11, des.Time(1+i)/10, true)
	}
	rows := tr.BlameTable()
	if len(rows) == 0 {
		t.Fatal("empty table")
	}
	wins := map[des.Time][]BlameRow{}
	for _, r := range rows {
		wins[r.Window] = append(wins[r.Window], r)
	}
	if len(wins) != 2 {
		t.Fatalf("windows = %v, want 0 and 10", len(wins))
	}
	classes := map[string]bool{}
	for _, r := range wins[0] {
		classes[r.Class] = true
		if r.Class == "mean" && r.Requests != 40 {
			t.Fatalf("window 0 mean class has %d requests", r.Requests)
		}
		// Every synthetic request visited the DB tier's disk.
		if r.Comp[TierDB][SegDisk] <= 0 {
			t.Fatalf("DB disk time missing from %+v", r)
		}
	}
	for _, want := range []string{"mean", "p50", "p95", "p99"} {
		if !classes[want] {
			t.Fatalf("window 0 missing class %q (have %v)", want, classes)
		}
	}
	if _, ok := BlameSummary(rows, "mean", 0, 20*des.Second); !ok {
		t.Fatal("summary empty")
	}
	sum, _ := BlameSummary(rows, "mean", 0, 20*des.Second)
	if sum.Requests != 50 {
		t.Fatalf("summary population = %d, want 50", sum.Requests)
	}
}

func TestChromeTraceSchema(t *testing.T) {
	tr := New(Config{SampleRate: 1, Reservoir: 4})
	endToEnd(tr, 5, 9, true)
	audit := []AuditEvent{{Time: 7, Kind: AuditThresholdTrigger, Tier: "tomcat", Cause: "cpu=0.93 > 0.90 for 3 checks"}}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Slowest(), audit); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	spans, segs, instants := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			if ev["cat"] == "span" {
				spans++
				if _, ok := ev["args"].(map[string]any)["outcome"]; !ok {
					t.Fatalf("span without outcome arg: %v", ev)
				}
			} else {
				segs++
			}
			if d, ok := ev["dur"].(float64); ok && d < 0 {
				t.Fatalf("negative duration: %v", ev)
			}
		case "i":
			instants++
			if ev["s"] != "g" {
				t.Fatalf("instant not global scope: %v", ev)
			}
			if ev["cat"] != "audit" {
				t.Fatalf("instant not audit: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if spans != 2 { // root + DB child
		t.Fatalf("span events = %d, want 2", spans)
	}
	if segs == 0 || instants != 1 {
		t.Fatalf("segs=%d instants=%d", segs, instants)
	}
}

func TestWaterfallRendersTree(t *testing.T) {
	tr := New(Config{SampleRate: 1, Reservoir: 1})
	endToEnd(tr, 0, 9, true)
	var buf bytes.Buffer
	if err := WriteWaterfall(&buf, tr.Slowest()[0]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"browse", "rt=9000.0ms", "web1", "mysql1", "C", "D", "wait"} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	if err := WriteWaterfall(&buf, nil); err != nil {
		t.Fatal("nil root must be a no-op")
	}
}

func TestBlameAndAuditCSV(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	endToEnd(tr, 0, 9, true)
	var buf bytes.Buffer
	if err := WriteBlameCSV(&buf, "conscale", tr.BlameTable()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "mode,window_s,class,requests,sheds,rt_ms,tier,component,ms,share" {
		t.Fatalf("header: %s", lines[0])
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "conscale,") {
		t.Fatalf("no data rows:\n%s", buf.String())
	}

	buf.Reset()
	events := []AuditEvent{{Time: 1, Kind: AuditSCTEstimate, Tier: "mysql",
		Cause: "estimator refresh, again", Qlower: 10, Qupper: 20, Value: 400}}
	if err := WriteAuditCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_s,time_hms,kind,tier,cause,detail,qlower,qupper,value" {
		t.Fatalf("header: %s", lines[0])
	}
	if strings.Count(lines[1], ",") != 8 {
		t.Fatalf("cause comma not escaped: %s", lines[1])
	}
	if !strings.HasPrefix(lines[1], "1.000,00:01.000,") {
		t.Fatalf("sim-time columns: %s", lines[1])
	}
}

func TestFormatSimTime(t *testing.T) {
	cases := []struct {
		in   des.Time
		want string
	}{
		{0, "00:00.000"},
		{1, "00:01.000"},
		{61.5, "01:01.500"},
		{245.678, "04:05.678"},
		{-3.25, "-00:03.250"},
		{7200.001, "120:00.001"},
	}
	for _, c := range cases {
		if got := FormatSimTime(c.in); got != c.want {
			t.Errorf("FormatSimTime(%v) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestAuditRecording(t *testing.T) {
	a := NewAudit()
	a.Record(AuditEvent{Time: 1, Kind: AuditScaleOutLaunch, Tier: "tomcat", Cause: "x"})
	a.Record(AuditEvent{Time: 3, Kind: AuditScaleOutReady, Tier: "tomcat", Cause: "x"})
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	evs := a.Events()
	if len(evs) != 2 || evs[0].Time != 1 || evs[1].Time != 3 {
		t.Fatalf("events = %+v", evs)
	}
	var nilAudit *Audit
	nilAudit.Record(AuditEvent{}) // must not panic
	if nilAudit.Len() != 0 || nilAudit.Events() != nil {
		t.Fatal("nil audit misbehaves")
	}
}

func TestTierOfAndSegKinds(t *testing.T) {
	cases := map[string]TierID{
		"web1": TierWeb, "tomcat12": TierApp, "memcached1": TierCache,
		"mysql3": TierDB, "": TierClient, "zebra": TierClient,
	}
	for name, want := range cases {
		if got := TierOf(name); got != want {
			t.Fatalf("TierOf(%q) = %v, want %v", name, got, want)
		}
	}
	waits := 0
	for k := SegKind(0); k < NumSegKinds; k++ {
		if k.String() == "seg?" {
			t.Fatalf("kind %d unnamed", k)
		}
		if k.IsWait() {
			waits++
		}
	}
	if waits != 6 { // queue, pool, cpu-wait, disk-wait, net, shed
		t.Fatalf("wait kinds = %d", waits)
	}
}

func TestTracerStatsAndOutcomes(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	endToEnd(tr, 0, 9, true)
	endToEnd(tr, 10, 9, false)
	started, sampled, completed, failed := tr.Stats()
	if started != 2 || sampled != 2 || completed != 1 || failed != 1 {
		t.Fatalf("stats = %d/%d/%d/%d", started, sampled, completed, failed)
	}
}
