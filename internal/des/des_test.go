package des

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunInTimeOrder(t *testing.T) {
	e := New()
	var order []Time
	times := []Time{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		e.At(at, func() { order = append(order, at) })
	}
	e.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("fired %d events, want %d", len(order), len(times))
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order wrong: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	e.At(2.5, func() {
		if e.Now() != 2.5 {
			t.Fatalf("Now() = %v inside event at 2.5", e.Now())
		}
	})
	end := e.Run()
	if end != 2.5 {
		t.Fatalf("Run returned %v, want 2.5", end)
	}
}

func TestAfterRelative(t *testing.T) {
	e := New()
	var at Time
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := e.At(1, func() { fired = true })
	if !h.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := New()
	h := e.At(1, func() {})
	e.Run()
	if h.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestPendingReflectsState(t *testing.T) {
	e := New()
	h := e.At(1, func() {})
	if !h.Pending() {
		t.Fatal("fresh event not pending")
	}
	e.Run()
	if h.Pending() {
		t.Fatal("fired event still pending")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %d events by t=10, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockPastLastEvent(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestStopInterruptsRun(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
}

func TestEvery(t *testing.T) {
	e := New()
	var ticks []Time
	tk := e.Every(2, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 4 {
			e.Stop()
		}
	})
	e.Run()
	tk.Stop()
	want := []Time{2, 4, 6, 8}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopPreventsFutureTicks(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(1, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	e.At(10, func() {}) // keep the sim alive past stopped ticks
	e.Run()
	if count != 2 {
		t.Fatalf("ticker fired %d times after Stop, want 2", count)
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New().Every(0, func() {})
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	h := e.At(10, func() {})
	h.Cancel()
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5 (cancelled events must not count)", e.Fired())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(1, recurse)
		}
	}
	e.At(0, recurse)
	end := e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if end != 99 {
		t.Fatalf("end time = %v, want 99", end)
	}
}

// Property: for any set of event times, execution order is a sorted
// permutation of the input.
func TestQuickExecutionSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never executes an event beyond the deadline.
func TestQuickRunUntilRespectsDeadline(t *testing.T) {
	f := func(raw []uint16, deadline uint16) bool {
		e := New()
		ok := true
		d := Time(deadline)
		for _, r := range raw {
			at := Time(r)
			e.At(at, func() {
				if at > d {
					ok = false
				}
			})
		}
		e.RunUntil(d)
		return ok && e.Now() >= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	e := New()
	for i := 0; i < b.N; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
}

// --- regression tests for the inline-heap engine ---

// Pending must count live events only: cancelled-but-unswept heap entries
// are invisible (the historical engine counted them until drained).
func TestPendingExcludesCancelled(t *testing.T) {
	e := New()
	h1 := e.At(1, func() {})
	e.At(2, func() {})
	e.At(3, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	h1.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("Pending after cancel = %d, want 2 (cancelled events must not count)", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
}

// Stopping a Ticker must take effect immediately — the pending tick leaves
// the live count without waiting for the engine to drain past its time.
func TestTickerStopDoesNotLinger(t *testing.T) {
	e := New()
	tk := e.Every(1000, func() {})
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 armed tick", e.Pending())
	}
	tk.Stop()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0: the cancelled tick lingered", e.Pending())
	}
	tk.Stop() // idempotent
	if e.Pending() != 0 {
		t.Fatalf("second Stop changed Pending to %d", e.Pending())
	}
}

// Handles are generation-counted: a handle whose slot has been recycled by
// a later event must not cancel (or report pending for) the newcomer.
func TestHandleSafeAcrossSlotReuse(t *testing.T) {
	e := New()
	stale := e.At(1, func() {})
	e.Run() // fires the event, freeing its slot
	fired := false
	fresh := e.At(2, func() { fired = true }) // reuses the slot
	if stale.Pending() {
		t.Fatal("stale handle reports pending after slot reuse")
	}
	if stale.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot's new event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh event lost by stale-handle interaction")
	}
	e.Run()
	if !fired {
		t.Fatal("fresh event did not fire")
	}
}

// The zero Handle is inert.
func TestZeroHandle(t *testing.T) {
	var h Handle
	if h.Pending() {
		t.Fatal("zero handle pending")
	}
	if h.Cancel() {
		t.Fatal("zero handle cancelled something")
	}
}

// Mass cancellation must compact the heap instead of letting abandoned
// entries accumulate until drained (the stopped-Ticker pattern).
func TestCancelHeavyCompaction(t *testing.T) {
	e := New()
	handles := make([]Handle, 0, 4096)
	for i := 0; i < 4096; i++ {
		handles = append(handles, e.At(Time(1000+i), func() {}))
	}
	e.At(5000, func() {}) // one survivor
	for _, h := range handles {
		h.Cancel()
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if got := len(e.near) + len(e.far); got > 64 {
		t.Fatalf("heaps hold %d entries after mass cancel, want compaction to ~1", got)
	}
	e.Run()
	if e.Fired() != 1 {
		t.Fatalf("fired %d events, want 1", e.Fired())
	}
}

// The cancel that trips compaction may leave a heap with nothing live in
// it — or both: the sweep must then leave it empty instead of sifting an
// entry that is not there.
func TestCompactionEmptiesAHeap(t *testing.T) {
	// 64 cancels trip the sweep, so each case cancels exactly 64.
	cases := []struct {
		name              string
		nearN, farN       int  // events scheduled on each heap, all cancelled
		nearLive, farLive bool // one more event that survives
	}{
		{"everything cancelled", 32, 32, false, false},
		{"near emptied, far live", 64, 0, false, true},
		{"far emptied, near live", 0, 64, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			var hs []Handle
			for i := 0; i < c.nearN; i++ {
				hs = append(hs, e.After(0, func() {}))
			}
			for i := 0; i < c.farN; i++ {
				hs = append(hs, e.After(10*nearHorizon, func() {}))
			}
			fired := 0
			if c.nearLive {
				e.After(0, func() { fired++ })
			}
			if c.farLive {
				e.After(10*nearHorizon, func() { fired++ })
			}
			for _, h := range hs {
				h.Cancel()
			}
			if n := len(e.near) + len(e.far); n != e.Pending() {
				t.Fatalf("heaps hold %d entries after compaction, want the %d live", n, e.Pending())
			}
			e.Run()
			want := 0
			if c.nearLive || c.farLive {
				want = 1
			}
			if fired != want || e.Pending() != 0 {
				t.Fatalf("fired %d survivors, want %d; %d still pending", fired, want, e.Pending())
			}
		})
	}
}

// Cancelling from inside a running event must be safe and exact.
func TestCancelDuringRun(t *testing.T) {
	e := New()
	var h2 Handle
	fired2 := false
	e.At(1, func() { h2.Cancel() })
	h2 = e.At(2, func() { fired2 = true })
	e.Run()
	if fired2 {
		t.Fatal("event fired despite in-run cancellation")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d at drain", e.Pending())
	}
}

// eventForms are the two ways to schedule the same event: a closure, and
// a typed (handler, argument) pair whose argument is a pointer the caller
// already holds.
var eventForms = []struct {
	name     string
	schedule func(e *Engine) Handle
}{
	{"closure", func(e *Engine) Handle { return e.After(1, func() {}) }},
	{"typed", func(e *Engine) Handle { return e.AfterArg(1, func(any) {}, e) }},
}

// warmEngine returns an engine whose slices have reached steady-state
// capacity.
func warmEngine(schedule func(e *Engine) Handle) *Engine {
	e := New()
	for i := 0; i < 64; i++ {
		schedule(e)
	}
	e.Run()
	return e
}

// The schedule→fire cycle must not allocate in steady state, in either
// form: entries, slots, and free-list storage are all reused, and boxing
// a func or a pointer as the event's argument is free (the allocation
// budget the perf work targets; see DESIGN.md "Performance engineering").
func TestScheduleFireAllocBudget(t *testing.T) {
	for _, form := range eventForms {
		e := warmEngine(form.schedule)
		allocs := testing.AllocsPerRun(1000, func() {
			form.schedule(e)
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("%s schedule→fire cycle allocates %.1f objects/op, want 0", form.name, allocs)
		}
	}
}

// Cancel must not allocate either.
func TestCancelAllocBudget(t *testing.T) {
	for _, form := range eventForms {
		e := warmEngine(form.schedule)
		allocs := testing.AllocsPerRun(1000, func() {
			h := form.schedule(e)
			h.Cancel()
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("%s schedule→cancel cycle allocates %.1f objects/op, want 0", form.name, allocs)
		}
	}
}

// Typed events and closures are one kind of event: they share the
// sequence that breaks ties, a handle cancels either, and the slot is
// free again by the time the handler runs.
func TestTypedEvents(t *testing.T) {
	e := New()
	var order []string
	note := func(arg any) { order = append(order, arg.(string)) }
	e.AtArg(1, note, "a")
	e.At(1, func() { order = append(order, "b") })
	cancelled := e.AfterArg(1, note, "cancelled")
	e.AtArg(1, note, "c")
	e.AtArg(0.5, func(arg any) {
		// The firing event's slot is the only one free: a handler must be
		// able to schedule into it.
		before := len(e.slots)
		e.AtArg(1, note, arg)
		if len(e.slots) != before {
			t.Errorf("slot table grew from %d to %d: the firing slot was not freed first", before, len(e.slots))
		}
	}, "d")
	if !cancelled.Pending() || !cancelled.Cancel() || cancelled.Pending() {
		t.Fatal("typed event did not cancel")
	}
	if e.slots[cancelled.slot].arg != nil {
		t.Fatal("cancel kept the event's argument alive")
	}
	e.Run()
	if got := fmt.Sprint(order); got != "[a b c d]" {
		t.Fatalf("fired %s, want [a b c d]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.AtArg(2, nil, nil)
}

// Property: a deep interleaving of schedules, cancels (before and during
// the run, enough to trip compaction) and handlers that schedule more
// fires in exactly (time, scheduling-order) sequence — the determinism
// contract the parallel experiment harness relies on — whether the run is
// one Run or sliced by RunUntil. Delays fall on both sides of nearHorizon
// and include zero, and events on the two heaps tie exactly in time.
func TestQuickCancelMixDeterminism(t *testing.T) {
	var cov mixCoverage
	f := func(seed int64) bool {
		p := drawMix(seed)
		want := p.reference(&cov)
		return slices.Equal(p.run(false), want) && slices.Equal(p.run(true), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if cov.zero == 0 || cov.near == 0 || cov.far == 0 || cov.crossTies == 0 {
		t.Fatalf("draws did not cover every case: %+v", cov)
	}
}

// mixProgram is one drawn program for the cancel-mix property: root events
// scheduled up front, some cancelled before the run; a root that fires may
// cancel another root, and every event may schedule a child, so the clock
// moves under later schedules and what lands near or far changes with it.
type mixProgram struct {
	grid   Time     // a power of two ≤ nearHorizon/4, so sums of grid steps are exact and tie
	codes  []uint16 // root i is at (codes[i]%32)·grid; code>>5 is its child's code, until 0
	precut []bool   // root i is cancelled before the run
	kill   []int    // root i, firing, cancels root kill[i] (-1: none)
	cuts   []Time   // RunUntil deadlines for the sliced run, in drawn order
}

// mixID names an event by its root and its depth in the root's chain (a
// 16-bit code has at most three children).
func mixID(root, depth int) int { return 4*root + depth }

func drawMix(seed int64) mixProgram {
	rng := rand.New(rand.NewSource(seed))
	p := mixProgram{grid: 1}
	for p.grid > nearHorizon/4 {
		p.grid /= 2
	}
	n := rng.Intn(400)
	p.codes, p.precut, p.kill = make([]uint16, n), make([]bool, n), make([]int, n)
	for i := range p.codes {
		p.codes[i] = uint16(rng.Intn(1 << 16))
		p.precut[i] = rng.Intn(3) > 0 // enough cancels to trip compaction
		p.kill[i] = -1
		if rng.Intn(2) == 0 {
			p.kill[i] = rng.Intn(n)
		}
	}
	for c := rng.Intn(8); c > 0; c-- {
		p.cuts = append(p.cuts, Time(rng.Intn(256))*p.grid/2)
	}
	return p
}

// mixCoverage counts what the drawn programs exercised.
type mixCoverage struct{ zero, near, far, crossTies int }

// reference fires p by the definition of the engine's order: at every step
// the pending event with the least (time, schedule index), i.e. the stable
// sort of the survivors by time. It also classifies each event as the
// engine would, to count what the draw covered.
func (p mixProgram) reference(cov *mixCoverage) []int {
	type ev struct {
		at   Time
		idx  int
		id   int
		code uint16
		near bool
	}
	var pending []ev
	idx := 0
	add := func(at, now Time, id int, code uint16) {
		e := ev{at, idx, id, code, at-now < nearHorizon}
		idx++
		switch {
		case at == now:
			cov.zero++
		case e.near:
			cov.near++
		default:
			cov.far++
		}
		pending = append(pending, e)
	}
	cancel := func(id int) {
		pending = slices.DeleteFunc(pending, func(e ev) bool { return e.id == id })
	}
	for i, c := range p.codes {
		add(Time(c%32)*p.grid, 0, mixID(i, 0), c)
	}
	for i, cut := range p.precut {
		if cut {
			cancel(mixID(i, 0))
		}
	}
	var fired []int
	var last ev
	for len(pending) > 0 {
		j := 0
		for k, e := range pending {
			if e.at < pending[j].at || e.at == pending[j].at && e.idx < pending[j].idx {
				j = k
			}
		}
		e := pending[j]
		pending = slices.Delete(pending, j, j+1)
		if len(fired) > 0 && last.at == e.at && last.near != e.near {
			cov.crossTies++
		}
		last = e
		fired = append(fired, e.id)
		if e.id%4 == 0 {
			if k := p.kill[e.id/4]; k >= 0 {
				cancel(mixID(k, 0))
			}
		}
		if next := e.code >> 5; next != 0 {
			add(e.at+Time(next%32)*p.grid, e.at, e.id+1, next)
		}
	}
	return fired
}

// run fires p on an engine, draining with Run, or first slicing the run
// with RunUntil at each of p.cuts.
func (p mixProgram) run(sliced bool) []int {
	e := New()
	var fired []int
	roots := make([]Handle, len(p.codes))
	var schedule func(at Time, id int, code uint16) Handle
	schedule = func(at Time, id int, code uint16) Handle {
		return e.At(at, func() {
			fired = append(fired, id)
			if id%4 == 0 {
				if k := p.kill[id/4]; k >= 0 {
					roots[k].Cancel()
				}
			}
			if next := code >> 5; next != 0 {
				schedule(e.Now()+Time(next%32)*p.grid, id+1, next)
			}
		})
	}
	for i, c := range p.codes {
		roots[i] = schedule(Time(c%32)*p.grid, mixID(i, 0), c)
	}
	for i, cut := range p.precut {
		if cut {
			roots[i].Cancel()
		}
	}
	if sliced {
		for _, d := range p.cuts {
			e.RunUntil(d)
		}
	}
	e.Run()
	return fired
}

// --- microbenchmarks ---

// BenchmarkEngineScheduleFire is the steady-state hot path: one event
// scheduled and fired per op with the heap near-empty.
func BenchmarkEngineScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := New()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleFireDepth1k keeps ~1000 events pending so every
// sift traverses a realistically deep heap (a scaled-out cluster run).
func BenchmarkEngineScheduleFireDepth1k(b *testing.B) {
	b.ReportAllocs()
	e := New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.After(Time(1+i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1000, fn)
		e.Step()
	}
}

// parkedLoad drives BenchmarkEngineParkedTimers: its events re-arm
// themselves with delays from a xorshift stream.
type parkedLoad struct {
	e *Engine
	x uint64
}

// uniform returns the next delay fraction in [0, 1).
func (l *parkedLoad) uniform() Time {
	l.x ^= l.x << 13
	l.x ^= l.x >> 7
	l.x ^= l.x << 17
	return Time(l.x>>11) / (1 << 53)
}

// rearmBurst is a request-path event: the next one is under 10 ms ahead.
func rearmBurst(arg any) {
	l := arg.(*parkedLoad)
	l.e.AfterArg(l.uniform()*10*Millisecond, rearmBurst, l)
}

// rearmThink is a think timer: the next one is parked 0.25–5 s ahead.
func rearmThink(arg any) {
	l := arg.(*parkedLoad)
	l.e.AfterArg(0.25+l.uniform()*4.75, rearmThink, l)
}

// BenchmarkEngineParkedTimers is the paper cell's schedule in miniature:
// 4 800 think timers parked 0.25–5 s ahead while 100 request-path chains
// schedule and fire events under 10 ms ahead, so ≈ 92 % of ops (one Step
// each) fire a request-path event, as ≈ 92 % of the paper cell's events
// are. BenchmarkEngineScheduleFireDepth1k puts every event at one horizon
// and cannot show the near/far split.
func BenchmarkEngineParkedTimers(b *testing.B) {
	b.ReportAllocs()
	l := &parkedLoad{e: New(), x: 1}
	for i := 0; i < 4800; i++ {
		rearmThink(l)
	}
	for i := 0; i < 100; i++ {
		rearmBurst(l)
	}
	for i := 0; i < 100_000; i++ { // reach the steady mix
		l.e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.e.Step()
	}
}

// BenchmarkEngineCancelHeavy exercises the lazy-cancel + compaction path:
// every op schedules two events and cancels one (the Ticker re-arm
// pattern).
func BenchmarkEngineCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	e := New()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := e.After(1, fn)
		e.After(1, fn)
		h.Cancel()
		e.Step()
	}
}

// AtBatch promises byte-for-byte equivalence with the same sequence of At
// calls: same firing order, same tie-breaks against events that were
// already scheduled and events scheduled afterwards.
func TestAtBatchMatchesSequentialAt(t *testing.T) {
	times := []Time{3, 1, 2, 2, 1, 3, 0.5, 2}
	run := func(batch bool) []int {
		e := New()
		var fired []int
		rec := func(id int) func() { return func() { fired = append(fired, id) } }
		e.At(2, rec(100)) // pre-existing event sharing a batch timestamp
		if batch {
			evs := make([]BatchEvent, len(times))
			for i, at := range times {
				evs[i] = BatchEvent{At: at, Fn: rec(i)}
			}
			e.AtBatch(evs)
		} else {
			for i, at := range times {
				e.At(at, rec(i))
			}
		}
		e.At(1, rec(200)) // later event sharing a batch timestamp
		e.Run()
		return fired
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("AtBatch fired %d events, At fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order diverges at %d: AtBatch %v, At %v", i, got, want)
		}
	}
}

// An empty batch is a no-op and a past-scheduled batch event panics like At.
func TestAtBatchEdgeCases(t *testing.T) {
	e := New()
	e.AtBatch(nil)
	e.AtBatch([]BatchEvent{})
	if e.Pending() != 0 {
		t.Fatalf("empty batches scheduled %d events", e.Pending())
	}
	e.At(5, func() {})
	e.RunUntil(3)
	defer func() {
		if recover() == nil {
			t.Fatal("AtBatch with a past event did not panic")
		}
	}()
	e.AtBatch([]BatchEvent{{At: 3, Fn: func() {}}, {At: 1, Fn: func() {}}})
}

// A warm engine must absorb a batch without allocating: storage is
// pre-grown once, then reused via the free list forever after.
func TestAtBatchAllocBudget(t *testing.T) {
	e := New()
	fn := func() {}
	evs := make([]BatchEvent, 64)
	warm := func() {
		at := e.Now() + 1
		for j := range evs {
			evs[j] = BatchEvent{At: at + Time(j), Fn: fn}
		}
		e.AtBatch(evs)
		e.RunUntil(at + Time(len(evs)))
	}
	warm()
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Fatalf("warm AtBatch cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// NextEvent reports the earliest pending time, skipping cancelled entries,
// without advancing the clock or firing anything.
func TestNextEvent(t *testing.T) {
	e := New()
	if _, ok := e.NextEvent(); ok {
		t.Fatal("empty engine reported a next event")
	}
	h := e.At(1, func() {})
	e.At(2, func() {})
	if at, ok := e.NextEvent(); !ok || at != 1 {
		t.Fatalf("NextEvent = %v,%v, want 1,true", at, ok)
	}
	h.Cancel()
	if at, ok := e.NextEvent(); !ok || at != 2 {
		t.Fatalf("NextEvent after cancel = %v,%v, want 2,true", at, ok)
	}
	if e.Now() != 0 || e.Fired() != 0 {
		t.Fatalf("NextEvent advanced the engine: now=%v fired=%d", e.Now(), e.Fired())
	}
	e.Run()
	if _, ok := e.NextEvent(); ok {
		t.Fatal("drained engine reported a next event")
	}
}

// BenchmarkEngineAtBatch measures the barrier bulk-insert path: 64 merged
// deliveries into a warm engine per op. Steady state must be 0 allocs/op.
func BenchmarkEngineAtBatch(b *testing.B) {
	b.ReportAllocs()
	e := New()
	fn := func() {}
	evs := make([]BatchEvent, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := e.Now() + 1
		for j := range evs {
			evs[j] = BatchEvent{At: at + Time(j), Fn: fn}
		}
		e.AtBatch(evs)
		e.RunUntil(at + Time(len(evs)))
	}
}
