package twin

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/qnet"
	"conscale/internal/rubbos"
	"conscale/internal/trace"
)

func testModel() Model {
	wl := rubbos.NewWorkload(rubbos.BrowseOnly, 1)
	return Model{
		Workload:  func() *rubbos.Workload { return wl },
		ThinkTime: 3,
		WebCores:  1, AppCores: 1, DBCores: 1,
		DiskChans: 1,
	}
}

// steadyObs builds an observation whose window measurements match the
// MVA solution exactly — the "calibrated regime" in miniature.
func steadyObs(t *testing.T, o *Observer, m Model, now des.Time, clients int) Observation {
	t.Helper()
	net, err := qnet.SnapshotNetwork(qnet.LiveState{
		Workload: m.Workload(), ThinkTime: m.ThinkTime,
		WebVMs: 1, AppVMs: 2, DBVMs: 1,
		WebCores: m.WebCores, AppCores: m.AppCores, DBCores: m.DBCores,
		DiskChans: m.DiskChans,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := net.Solve(clients)
	okN := int(res.Throughput * float64(o.Config().Interval))
	if okN < 1 {
		okN = 1
	}
	for i := 0; i < okN; i++ {
		o.ObserveArrival()
		o.Observe(now, res.ResponseTime, true)
	}
	obs := Observation{Time: now, Clients: clients}
	obs.Web = TierObs{Ready: 1}
	obs.App = TierObs{Ready: 2}
	obs.DB = TierObs{Ready: 1}
	if i := net.StationIndex("web-cpu"); i >= 0 {
		obs.Web.CPU = res.Utilization[i]
	}
	if i := net.StationIndex("app-cpu"); i >= 0 {
		obs.App.CPU = res.Utilization[i]
	}
	if i := net.StationIndex("db-cpu"); i >= 0 {
		obs.DB.CPU = res.Utilization[i]
	}
	return obs
}

func TestTwinAgreesInSteadyRegime(t *testing.T) {
	m := testModel()
	o := New(Config{}, m)
	now := des.Time(0)
	for i := 0; i < 5; i++ {
		now += o.Config().Interval
		o.Tick(steadyObs(t, o, m, now, 300))
	}
	samples := o.Samples()
	if len(samples) != 5 {
		t.Fatalf("samples = %d", len(samples))
	}
	for i, s := range samples {
		if !s.Applicable {
			t.Fatalf("sample %d inapplicable: %s", i, s.Reason)
		}
		// The fed window quantises throughput to whole completions, so
		// allow a percent of discretisation noise on top of agreement.
		if s.RTRelErr > 0.01 {
			t.Fatalf("sample %d: rt rel err %v in a fabricated perfect regime", i, s.RTRelErr)
		}
		if s.UtilGap > 0.01 {
			t.Fatalf("sample %d: util gap %v", i, s.UtilGap)
		}
		if s.LittlesResidual > 0.02 {
			t.Fatalf("sample %d: Little residual %v", i, s.LittlesResidual)
		}
		if s.InDrift {
			t.Fatalf("sample %d drifted in a perfect regime", i)
		}
	}
	if o.DriftCount() != 0 {
		t.Fatalf("drift count %d", o.DriftCount())
	}
	if got := o.LastRelErr(); math.IsNaN(got) || got > 0.01 {
		t.Fatalf("LastRelErr = %v", got)
	}
}

// TestAdversarialWindowsInapplicable is the invariant-probe satellite:
// an empty window, an all-dropped window, and a mid-scale-out
// transition must each report "regime inapplicable" — and must not
// advance the drift machine even when surrounded by divergent samples.
func TestAdversarialWindowsInapplicable(t *testing.T) {
	m := testModel()
	cases := []struct {
		name   string
		feed   func(o *Observer, now des.Time) Observation
		substr string
	}{
		{
			"empty window",
			func(o *Observer, now des.Time) Observation {
				return Observation{Time: now, Clients: 300,
					Web: TierObs{Ready: 1}, App: TierObs{Ready: 2}, DB: TierObs{Ready: 1}}
			},
			"empty window",
		},
		{
			"all requests dropped",
			func(o *Observer, now des.Time) Observation {
				for i := 0; i < 50; i++ {
					o.ObserveArrival()
					o.Observe(now, 0, false)
				}
				return Observation{Time: now, Clients: 300,
					Web: TierObs{Ready: 1}, App: TierObs{Ready: 2}, DB: TierObs{Ready: 1}}
			},
			"all requests dropped",
		},
		{
			"mid-scale-out boot",
			func(o *Observer, now des.Time) Observation {
				for i := 0; i < 50; i++ {
					o.ObserveArrival()
					o.Observe(now, 0.05, true)
				}
				return Observation{Time: now, Clients: 300, BootingVMs: 1,
					Web: TierObs{Ready: 1}, App: TierObs{Ready: 2}, DB: TierObs{Ready: 1}}
			},
			"scale transition",
		},
		{
			"ready count changed",
			func(o *Observer, now des.Time) Observation {
				for i := 0; i < 50; i++ {
					o.ObserveArrival()
					o.Observe(now, 0.05, true)
				}
				// Prime the previous tick with a different app-tier size.
				return Observation{Time: now, Clients: 300,
					Web: TierObs{Ready: 1}, App: TierObs{Ready: 3}, DB: TierObs{Ready: 1}}
			},
			"ready VM count changed",
		},
		{
			"tier dark mid-repair",
			func(o *Observer, now des.Time) Observation {
				// The first dark tick trips the transition gate; the
				// second, with the ready set stable, must surface the
				// model's own "tier dark" error.
				dark := Observation{Time: now, Clients: 300,
					Web: TierObs{Ready: 1}, App: TierObs{Ready: 0}, DB: TierObs{Ready: 1}}
				for i := 0; i < 50; i++ {
					o.ObserveArrival()
					o.Observe(now, 0.05, true)
				}
				o.Tick(dark)
				dark.Time += o.Config().Interval
				for i := 0; i < 50; i++ {
					o.ObserveArrival()
					o.Observe(dark.Time, 0.05, true)
				}
				return dark
			},
			"tier dark",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := New(Config{DriftTicks: 1}, m) // hair trigger: any spurious sample would flag
			now := o.Config().Interval
			// Prime one steady tick so transition gates have a previous state.
			o.Tick(steadyObs(t, o, m, now, 300))
			now += o.Config().Interval
			o.Tick(tc.feed(o, now))
			samples := o.Samples()
			last := samples[len(samples)-1]
			if last.Applicable {
				t.Fatalf("adversarial window applicable: %+v", last)
			}
			if !strings.HasPrefix(last.Reason, "regime inapplicable: ") ||
				!strings.Contains(last.Reason, tc.substr) {
				t.Fatalf("reason %q does not mention %q", last.Reason, tc.substr)
			}
			if last.InDrift || o.DriftCount() != 0 {
				t.Fatalf("spurious drift flag on %s", tc.name)
			}
		})
	}
}

func TestPopulationRampAndFlowImbalanceGates(t *testing.T) {
	m := testModel()
	o := New(Config{}, m)
	now := o.Config().Interval
	o.Tick(steadyObs(t, o, m, now, 300))

	// 300 -> 500 clients between ticks: > 10% ramp.
	now += o.Config().Interval
	obs := steadyObs(t, o, m, now, 500)
	o.Tick(obs)
	s := o.Samples()[1]
	if s.Applicable || !strings.Contains(s.Reason, "population ramp") {
		t.Fatalf("ramp tick: %+v", s)
	}

	// Arrivals far above completions: flow imbalance.
	now += o.Config().Interval
	for i := 0; i < 200; i++ {
		o.ObserveArrival()
	}
	for i := 0; i < 100; i++ {
		o.Observe(now, 0.05, true)
	}
	o.Tick(Observation{Time: now, Clients: 500,
		Web: TierObs{Ready: 1}, App: TierObs{Ready: 2}, DB: TierObs{Ready: 1}})
	s = o.Samples()[2]
	if s.Applicable || !strings.Contains(s.Reason, "flow imbalance") {
		t.Fatalf("imbalance tick: %+v", s)
	}

	// Population beyond the solver cap.
	o2 := New(Config{MaxPopulation: 100}, m)
	now = o2.Config().Interval
	o2.Tick(steadyObs(t, o2, m, now, 300))
	s = o2.Samples()[0]
	if s.Applicable || !strings.Contains(s.Reason, "above solver cap") {
		t.Fatalf("cap tick: %+v", s)
	}
}

type fakeEpisodes struct{ in bool }

func (f *fakeEpisodes) InEpisode() bool { return f.in }

func TestDriftRaisesClassifiesAndClears(t *testing.T) {
	m := testModel()
	o := New(Config{DriftTicks: 2, ClearTicks: 2}, m)
	audit := trace.NewAudit()
	o.SetAudit(audit)
	eps := &fakeEpisodes{}
	o.SetEpisodeSource(eps)

	divergent := func(now des.Time, clients int) Observation {
		for i := 0; i < 100; i++ {
			o.ObserveArrival()
			// 3 s observed RT against a ~50 ms prediction: huge error.
			o.Observe(now, 3.0, true)
		}
		return Observation{Time: now, Clients: clients,
			Web: TierObs{Ready: 1}, App: TierObs{Ready: 2}, DB: TierObs{Ready: 1}}
	}
	now := des.Time(0)
	for i := 0; i < 2; i++ {
		now += o.Config().Interval
		o.Tick(divergent(now, 300))
	}
	if !o.InDrift() || o.DriftCount() != 1 {
		t.Fatalf("drift not raised: inDrift=%v count=%d", o.InDrift(), o.DriftCount())
	}
	// Calm system at raise time: must classify as model-bug candidate.
	for i := 0; i < 2; i++ {
		now += o.Config().Interval
		o.Tick(steadyObs(t, o, m, now, 300))
	}
	if o.InDrift() {
		t.Fatal("drift did not clear after matching ticks")
	}
	drifts := o.Drifts()
	if len(drifts) != 1 || drifts[0].Class != ClassModelBug || drifts[0].InEpisode {
		t.Fatalf("drifts = %+v", drifts)
	}
	var kinds []trace.AuditKind
	for _, e := range audit.Events() {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) != 2 || kinds[0] != trace.AuditTwinDrift || kinds[1] != trace.AuditTwinClear {
		t.Fatalf("audit kinds = %v", kinds)
	}

	// Raise again inside a forensics episode: classifies transient.
	eps.in = true
	for i := 0; i < 2; i++ {
		now += o.Config().Interval
		o.Tick(divergent(now, 300))
	}
	o.Finish(now)
	drifts = o.Drifts()
	if len(drifts) != 2 || drifts[1].Class != ClassTransient || !drifts[1].InEpisode || !drifts[1].Open {
		t.Fatalf("drifts after episode-raise = %+v", drifts)
	}
}

// TestTwinNilZeroAlloc pins the house rule: the unarmed (nil) hot path
// allocates nothing.
func TestTwinNilZeroAlloc(t *testing.T) {
	obs := Observation{Time: 1, Clients: 10,
		Web: TierObs{Ready: 1}, App: TierObs{Ready: 1}, DB: TierObs{Ready: 1}}
	var nilO *Observer
	if n := testing.AllocsPerRun(1000, func() {
		nilO.ObserveArrival()
		nilO.Observe(1, 0.05, true)
		nilO.Tick(obs)
		_ = nilO.InDrift()
	}); n != 0 {
		t.Fatalf("nil twin: %v allocs/op", n)
	}
}

func TestSampleCapBounds(t *testing.T) {
	m := testModel()
	o := New(Config{SampleCap: 3}, m)
	now := des.Time(0)
	for i := 0; i < 10; i++ {
		now += o.Config().Interval
		o.Tick(steadyObs(t, o, m, now, 300))
	}
	if len(o.Samples()) != 3 {
		t.Fatalf("retained %d samples, cap 3", len(o.Samples()))
	}
	if o.Dropped() != 7 {
		t.Fatalf("dropped = %d", o.Dropped())
	}
	if o.Ticks() != 10 {
		t.Fatalf("ticks = %d", o.Ticks())
	}
}

func TestExportCSVAndChrome(t *testing.T) {
	m := testModel()
	o := New(Config{DriftTicks: 1, ClearTicks: 1}, m)
	now := o.Config().Interval
	o.Tick(steadyObs(t, o, m, now, 300))
	now += o.Config().Interval
	o.Tick(Observation{Time: now, Clients: 300,
		Web: TierObs{Ready: 1}, App: TierObs{Ready: 2}, DB: TierObs{Ready: 1}}) // empty window
	o.Finish(now)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, o.Samples()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "time_s,clients,applicable,reason") {
		t.Fatalf("header = %s", lines[0])
	}
	if !strings.Contains(lines[2], "regime inapplicable") {
		t.Fatalf("inapplicable row lost its reason: %s", lines[2])
	}

	doc := &trace.ChromeTrace{DisplayTimeUnit: "ms"}
	AppendChrome(doc, o.Samples(), o.Drifts())
	var counters, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "C":
			counters++
		case "i":
			instants++
		}
	}
	if counters != 2 || instants != 1 {
		t.Fatalf("chrome events: %d counters, %d instants", counters, instants)
	}
	AppendChrome(nil, o.Samples(), o.Drifts()) // nil doc is a no-op
}

func BenchmarkTwinObserveNil(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.ObserveArrival()
		o.Observe(1, 0.05, true)
	}
}

func BenchmarkTwinTickSteady(b *testing.B) {
	m := testModel()
	o := New(Config{}, m)
	obs := Observation{Clients: 2500,
		Web: TierObs{Ready: 2, CPU: 0.5}, App: TierObs{Ready: 4, CPU: 0.5}, DB: TierObs{Ready: 2, CPU: 0.5}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.Time += o.Config().Interval
		for j := 0; j < 100; j++ {
			o.ObserveArrival()
			o.Observe(obs.Time, 0.05, true)
		}
		o.Tick(obs)
	}
}
