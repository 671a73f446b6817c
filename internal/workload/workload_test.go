package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"conscale/internal/des"
	"conscale/internal/rng"
)

func TestAllTracesBounded(t *testing.T) {
	for _, tr := range StandardTraces() {
		for i, v := range tr.Series(des.Second) {
			if v < 0 || v > tr.MaxUsers {
				t.Fatalf("%s[%d] = %d out of [0, %d]", tr.Name, i, v, tr.MaxUsers)
			}
		}
	}
}

func TestTraceNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("want 6 traces, got %d", len(names))
	}
	for _, n := range names {
		tr := NewTrace(n, 1000, 720)
		if tr.Name != n {
			t.Fatalf("trace name mismatch: %s", tr.Name)
		}
	}
}

func TestUnknownTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTrace("nope", 1000, 720)
}

func TestBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTrace(BigSpike, 0, 720)
}

func TestBigSpikeHasSpike(t *testing.T) {
	tr := NewTrace(BigSpike, 7500, 720)
	series := tr.Series(des.Second)
	peak, base := 0, 0
	for i, v := range series {
		if v > peak {
			peak = v
		}
		// Baseline measured well away from the spike (first 20%).
		if i < len(series)/5 && v > base {
			base = v
		}
	}
	if float64(peak) < 2.2*float64(base) {
		t.Fatalf("spike (%d) should tower over baseline (%d)", peak, base)
	}
	if peak < 6000 {
		t.Fatalf("peak = %d, want near MaxUsers", peak)
	}
}

func TestDualPhaseHasTwoLevels(t *testing.T) {
	tr := NewTrace(DualPhase, 1000, 720)
	early := tr.UsersAt(100) // low plateau
	late := tr.UsersAt(450)  // high plateau
	if late < early+300 {
		t.Fatalf("phases not distinct: early=%d late=%d", early, late)
	}
	// Plateaus should be flat: nearby samples close.
	if d := math.Abs(float64(tr.UsersAt(120) - tr.UsersAt(140))); d > 20 {
		t.Fatalf("low plateau not flat (Δ=%v)", d)
	}
}

func TestSteepTriPhaseMonotoneSteps(t *testing.T) {
	tr := NewTrace(SteepTriPhase, 1000, 720)
	l1 := tr.UsersAt(100) // phase 1
	l2 := tr.UsersAt(330) // phase 2
	l3 := tr.UsersAt(550) // phase 3
	if !(l1 < l2 && l2 < l3) {
		t.Fatalf("steps not increasing: %d %d %d", l1, l2, l3)
	}
}

func TestQuicklyVaryingOscillates(t *testing.T) {
	tr := NewTrace(QuicklyVarying, 1000, 720)
	series := tr.Series(des.Second)
	direction, changes := 0, 0
	for i := 1; i < len(series); i++ {
		d := series[i] - series[i-1]
		if d > 0 && direction <= 0 {
			direction, changes = 1, changes+1
		} else if d < 0 && direction >= 0 {
			direction, changes = -1, changes+1
		}
	}
	if changes < 10 {
		t.Fatalf("quickly-varying only changed direction %d times", changes)
	}
}

func TestSlowlyVaryingSinglePeak(t *testing.T) {
	tr := NewTrace(SlowlyVarying, 1000, 720)
	series := tr.Series(10 * des.Second)
	peakIdx := 0
	for i, v := range series {
		if v > series[peakIdx] {
			peakIdx = i
		}
	}
	// Monotone rise to the peak, monotone fall after (tolerating rounding).
	for i := 1; i <= peakIdx; i++ {
		if series[i] < series[i-1]-1 {
			t.Fatalf("dip before peak at %d", i)
		}
	}
	for i := peakIdx + 1; i < len(series); i++ {
		if series[i] > series[i-1]+1 {
			t.Fatalf("rise after peak at %d", i)
		}
	}
}

func TestUsersAtClampsOutOfRange(t *testing.T) {
	tr := NewTrace(LargeVariations, 1000, 720)
	if tr.UsersAt(-5) != tr.UsersAt(0) {
		t.Fatal("pre-start not clamped")
	}
	if tr.UsersAt(100000) != tr.UsersAt(720) {
		t.Fatal("post-end not clamped")
	}
}

// Property: every trace's UsersAt stays within bounds for arbitrary times.
func TestQuickTraceBounds(t *testing.T) {
	traces := StandardTraces()
	f := func(ti uint16, which uint8) bool {
		tr := traces[int(which)%len(traces)]
		v := tr.UsersAt(des.Time(ti))
		return v >= 0 && v <= tr.MaxUsers
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// instantService completes every request after a fixed simulated delay.
type instantService struct {
	eng     *des.Engine
	delay   des.Time
	served  int
	failAll bool
}

func (s *instantService) submit(done func(bool)) {
	s.served++
	ok := !s.failAll
	s.eng.After(s.delay, func() { done(ok) })
}

func constantTrace(users int, dur des.Time) *Trace {
	return &Trace{
		Name:     "const",
		Duration: dur,
		MaxUsers: users,
		shape:    func(float64) float64 { return 1 },
	}
}

func TestGeneratorClosedLoopThroughput(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.1}
	tr := constantTrace(10, 100)
	g := NewGenerator(eng, rng.New(1), GeneratorConfig{Trace: tr, ThinkTime: 0.9}, svc.submit)
	g.Start()
	eng.Run()
	// Each user cycle = think 0.9 + response 0.1 = 1s → ~10 req/s for 100s.
	total := g.GoodputTotal()
	if total < 800 || total > 1200 {
		t.Fatalf("total completions = %d, want ~1000", total)
	}
}

func TestGeneratorTracksTrace(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.01}
	tr := &Trace{
		Name:     "step",
		Duration: 100,
		MaxUsers: 100,
		shape: func(u float64) float64 {
			if u < 0.5 {
				return 0.2
			}
			return 1.0
		},
	}
	g := NewGenerator(eng, rng.New(2), GeneratorConfig{Trace: tr, ThinkTime: 1}, svc.submit)
	g.Start()
	eng.RunUntil(40)
	if g.Active() != 20 {
		t.Fatalf("active at t=40 is %d, want 20", g.Active())
	}
	eng.RunUntil(60)
	if g.Active() != 100 {
		t.Fatalf("active at t=60 is %d, want 100", g.Active())
	}
}

func TestGeneratorRetiresUsers(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.01}
	tr := &Trace{
		Name:     "rampdown",
		Duration: 100,
		MaxUsers: 50,
		shape: func(u float64) float64 {
			if u < 0.3 {
				return 1
			}
			return 0.1
		},
	}
	g := NewGenerator(eng, rng.New(3), GeneratorConfig{Trace: tr, ThinkTime: 0.5}, svc.submit)
	g.Start()
	eng.RunUntil(50)
	if g.Active() != 5 {
		t.Fatalf("active after ramp-down = %d, want 5", g.Active())
	}
	before := svc.served
	eng.RunUntil(60)
	rate := float64(svc.served-before) / 10
	// 5 users × ~2 req/s each ≈ 10/s; far below the 100/s of 50 users.
	if rate > 25 {
		t.Fatalf("request rate after ramp-down = %v/s, retirement broken", rate)
	}
}

func TestGeneratorTimeline(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.05}
	tr := constantTrace(5, 10)
	g := NewGenerator(eng, rng.New(4), GeneratorConfig{Trace: tr, ThinkTime: 0.45}, svc.submit)
	g.Start()
	eng.Run()
	tl := g.Timeline()
	if len(tl) < 9 {
		t.Fatalf("timeline has %d points, want ~10", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Time <= tl[i-1].Time {
			t.Fatal("timeline not increasing")
		}
	}
	mid := tl[5]
	if mid.Users != 5 {
		t.Fatalf("timeline users = %d, want 5", mid.Users)
	}
	if mid.Throughput <= 0 {
		t.Fatal("timeline throughput should be positive mid-run")
	}
}

func TestGeneratorErrorTracking(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.01, failAll: true}
	tr := constantTrace(3, 10)
	g := NewGenerator(eng, rng.New(5), GeneratorConfig{Trace: tr, ThinkTime: 0.5}, svc.submit)
	g.Start()
	eng.Run()
	if g.ErrorRate() != 1 {
		t.Fatalf("ErrorRate = %v, want 1", g.ErrorRate())
	}
	if g.GoodputTotal() != 0 {
		t.Fatalf("GoodputTotal = %d, want 0", g.GoodputTotal())
	}
}

func TestGeneratorTailLatency(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.2}
	tr := constantTrace(4, 20)
	g := NewGenerator(eng, rng.New(6), GeneratorConfig{Trace: tr, ThinkTime: 0.8}, svc.submit)
	g.Start()
	eng.Run()
	p95 := g.TailLatency(95, 0)
	if math.Abs(p95-0.2) > 0.01 {
		t.Fatalf("p95 = %v, want ~0.2", p95)
	}
	if p99 := g.TailLatency(99, 0); p99 < p95 {
		t.Fatalf("p99 (%v) < p95 (%v)", p99, p95)
	}
}

func TestGeneratorZeroThink(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.1}
	tr := constantTrace(3, 10)
	g := NewGenerator(eng, rng.New(7), GeneratorConfig{Trace: tr, ThinkTime: 0}, svc.submit)
	g.Start()
	eng.Run()
	// Zero think: each user completes 10 req/s → ~300 total.
	total := g.GoodputTotal()
	if total < 270 || total > 330 {
		t.Fatalf("zero-think completions = %d, want ~300", total)
	}
}

func TestGeneratorNilTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGenerator(des.New(), rng.New(1), GeneratorConfig{}, func(func(bool)) {})
}

func TestGeneratorStopsAtTraceEnd(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.01}
	tr := constantTrace(10, 10)
	g := NewGenerator(eng, rng.New(8), GeneratorConfig{Trace: tr, ThinkTime: 0.2}, svc.submit)
	g.Start()
	end := eng.Run()
	// After Duration, all users retire; the sim drains quickly after 10s.
	if end > 12 {
		t.Fatalf("simulation ran until %v, want shortly after 10", end)
	}
	if g.Active() != 0 {
		t.Fatalf("active at end = %d", g.Active())
	}
}

func TestOpenLoopRateTracksTrace(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.001}
	tr := constantTrace(100, 60) // 100 users / 2s think = 50 req/s
	g := NewGenerator(eng, rng.New(11), GeneratorConfig{
		Trace: tr, ThinkTime: 2, OpenLoop: true,
	}, svc.submit)
	g.Start()
	eng.Run()
	total := g.GoodputTotal()
	if total < 2400 || total > 3600 { // ~3000 expected
		t.Fatalf("open-loop completions = %d, want ~3000", total)
	}
}

func TestOpenLoopDoesNotSelfThrottle(t *testing.T) {
	// A slow service: closed-loop throughput collapses to users/RT;
	// open-loop keeps issuing at the trace rate regardless.
	eng := des.New()
	slow := &instantService{eng: eng, delay: 2}
	tr := constantTrace(100, 30)
	g := NewGenerator(eng, rng.New(12), GeneratorConfig{
		Trace: tr, ThinkTime: 1, OpenLoop: true,
	}, slow.submit)
	g.Start()
	eng.Run()
	// 100 req/s for 30 s ≈ 3000 submissions despite the 2 s service time.
	if slow.served < 2500 {
		t.Fatalf("open loop issued only %d requests", slow.served)
	}
}

func TestAbandonMarksLateResponses(t *testing.T) {
	eng := des.New()
	slow := &instantService{eng: eng, delay: 0.5}
	tr := constantTrace(5, 20)
	g := NewGenerator(eng, rng.New(13), GeneratorConfig{
		Trace: tr, ThinkTime: 0.5, Abandon: 0.2, // every response is late
	}, slow.submit)
	g.Start()
	eng.Run()
	if g.GoodputTotal() != 0 {
		t.Fatalf("late responses counted as goodput: %d", g.GoodputTotal())
	}
	if g.ErrorRate() != 1 {
		t.Fatalf("ErrorRate = %v, want 1", g.ErrorRate())
	}
}

func TestAbandonGenerousLimitHarmless(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.01}
	tr := constantTrace(5, 10)
	g := NewGenerator(eng, rng.New(14), GeneratorConfig{
		Trace: tr, ThinkTime: 0.5, Abandon: 10,
	}, svc.submit)
	g.Start()
	eng.Run()
	if g.ErrorRate() != 0 {
		t.Fatalf("fast responses abandoned: %v", g.ErrorRate())
	}
}

// closedLoopFixture starts users closed-loop users over a system that
// answers at once and runs past the initial ramp, so that every event but
// the once-a-second population check is one user's arrival: issue, sample
// append, think draw, reschedule.
func closedLoopFixture(users int) (*des.Engine, *Generator) {
	eng := des.New()
	gen := NewGenerator(eng, rng.New(1), GeneratorConfig{
		Trace:     NewConstantTrace(users, des.Time(1e9)),
		ThinkTime: 3,
	}, func(done func(ok bool)) { done(true) })
	gen.Start()
	eng.RunUntil(30)
	return eng, gen
}

// TestClosedLoopArrivalAllocBudget pins the generator's share of the
// request path: a user's flight record carries the completion callback,
// so an arrival allocates nothing.
func TestClosedLoopArrivalAllocBudget(t *testing.T) {
	eng, gen := closedLoopFixture(500)
	gen.samples = make([]Sample, 0, 1<<16) // keep sample growth out of the count
	if allocs := testing.AllocsPerRun(5000, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("a closed-loop arrival allocates %.2f objects, want 0", allocs)
	}
}

// callDone is a completion event: its argument is the request's callback.
func callDone(arg any) { arg.(func(ok bool))(true) }

// TestOpenArrivalAllocBudget pins the open-loop issue paths with requests
// overlapping (≈ 50 out at once, so flights cycle through the idle list):
// an arrival and a completion are each one engine event and neither
// allocates, with samples kept (OpenLoop) or folded (Streaming).
func TestOpenArrivalAllocBudget(t *testing.T) {
	for name, cfg := range map[string]GeneratorConfig{
		"open-loop": {OpenLoop: true},
		"streaming": {Streaming: true, Classes: []Class{{Weight: 3, ThinkTime: 1}, {Weight: 1, ThinkTime: 1}}},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			eng := des.New()
			issued := 0
			cfg.Trace, cfg.ThinkTime = NewConstantTrace(1000, des.Time(1e9)), 1
			gen := NewGenerator(eng, rng.New(1), cfg, func(done func(ok bool)) {
				issued++
				eng.AfterArg(50*des.Millisecond, callDone, done) // the argument is the callback: no allocation
			})
			gen.Start()
			eng.RunUntil(30) // warm: engine storage, idle list, timeline
			gen.samples = make([]Sample, 0, 1<<16)
			warm := issued
			if allocs := testing.AllocsPerRun(5000, func() { eng.Step() }); allocs != 0 {
				t.Fatalf("an arrival or completion allocates %.2f objects, want 0", allocs)
			}
			if n := issued - warm; n < 2000 {
				t.Fatalf("%d arrivals among the measured events, want about half of 5000", n)
			}
			if len(gen.idle) == 0 || len(gen.idle) > 200 {
				t.Fatalf("%d flights idle: want the few dozen the overlap needs", len(gen.idle))
			}
		})
	}
}

// TestFlightCompletesOnce: a system that answers one request twice must
// crash the run, whichever issue path the request took — a recycled
// record would credit the second answer to another request.
func TestFlightCompletesOnce(t *testing.T) {
	mustPanic := func(t *testing.T, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "completed twice") {
				t.Fatalf("panic %q, want one naming the double completion", msg)
			}
		}()
		fn()
	}
	// held keeps every completion callback the generator hands out.
	start := func(t *testing.T, cfg GeneratorConfig) (*Generator, []func(ok bool)) {
		var held []func(ok bool)
		eng := des.New()
		cfg.Trace, cfg.ThinkTime = NewConstantTrace(4, 100), 1
		gen := NewGenerator(eng, rng.New(3), cfg, func(done func(ok bool)) { held = append(held, done) })
		gen.Start()
		eng.RunUntil(20)
		if len(held) < 4 {
			t.Fatalf("only %d requests issued", len(held))
		}
		return gen, held
	}
	for name, tc := range map[string]struct {
		cfg GeneratorConfig
		run func(gen *Generator, held []func(ok bool))
	}{
		"open-loop done twice": {GeneratorConfig{OpenLoop: true}, func(_ *Generator, held []func(ok bool)) {
			held[0](true)
			held[0](true)
		}},
		"streaming done after the flight went idle": {GeneratorConfig{Streaming: true}, func(gen *Generator, held []func(ok bool)) {
			held[0](true)
			held[1](false)
			if len(gen.idle) != 2 {
				panic("the answered flights did not go idle")
			}
			held[0](false)
		}},
		"closed-loop user done twice": {GeneratorConfig{}, func(_ *Generator, held []func(ok bool)) {
			held[2](true)
			held[2](true)
		}},
	} {
		tc := tc
		t.Run(name, func(t *testing.T) {
			gen, held := start(t, tc.cfg)
			mustPanic(t, func() { tc.run(gen, held) })
		})
	}
}

// BenchmarkClosedLoopArrival times one arrival of the paper cell's 7 500
// users (sample storage growth included).
func BenchmarkClosedLoopArrival(b *testing.B) {
	eng, _ := closedLoopFixture(7500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
