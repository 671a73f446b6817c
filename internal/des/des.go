// Package des implements the discrete-event simulation engine that every
// other simulator package runs on.
//
// The engine maintains a virtual clock and an event heap. Components
// schedule events at absolute or relative virtual times; Run drains the
// heap in time order, breaking ties by scheduling order so simulations are
// deterministic. An event is a (handler, argument) pair — AtArg/AfterArg —
// so a hot path can schedule a package-level function over a pointer it
// already holds and allocate nothing; At/After take a plain closure and
// are the same event with the closure as the argument. The engine is
// single-goroutine by design: the paper's testbed behaviour is reproduced
// by explicit queueing in the server model, not by goroutine interleaving,
// which keeps every experiment replayable. (Separate Engines are fully
// independent, so whole runs can execute in parallel — see
// internal/experiment's harness.)
//
// The schedule is two inline value-typed 4-ary min-heaps over compact
// (time, seq, slot) entries: near holds events scheduled less than
// nearHorizon ahead (service bursts, network hops), far holds the rest
// (think timers, tickers), and the engine fires the earlier top of the
// two — the same (time, seq) order one heap would give. The (handler,
// argument) pairs live in a slot table recycled through a free list. A
// schedule→fire cycle therefore allocates nothing in steady state —
// entries and slots are reused — which matters because a 12-minute
// cluster run fires tens of millions of events. Handles are
// generation-counted so Cancel and Pending stay safe across slot reuse.
// Cancellation is lazy (the heap entry is abandoned and skipped when it
// surfaces), with an opportunistic compaction pass when abandoned entries
// outnumber live ones — the Ticker-heavy cancel pattern cannot grow the
// heaps unboundedly. See DESIGN.md "Performance engineering".
package des

import "math"

// Time is virtual simulation time in seconds.
type Time float64

// Millisecond and Second are convenient Time spans.
const (
	Millisecond Time = 1e-3
	Second      Time = 1
)

// Handle identifies a scheduled event and allows cancellation. The zero
// Handle is valid and behaves as an already-fired event. Handles are
// generation-counted: once the event fires or its slot is recycled, stale
// copies report not-pending and refuse to cancel.
type Handle struct {
	e    *Engine
	slot int32
	gen  uint64
}

// Cancel removes the event from the schedule. Cancelling an already-fired
// or already-cancelled event is a no-op. It reports whether the event was
// still pending.
//
// Cancel is O(1): the handler and its argument are released immediately
// (so Ticker-captured state does not linger) and the heap entry is
// abandoned in place, to be skipped on pop or swept by compaction.
func (h Handle) Cancel() bool {
	e := h.e
	if e == nil || h.slot < 0 || int(h.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.slot]
	if s.gen != h.gen || s.h == nil {
		return false
	}
	s.h, s.arg = nil, nil
	e.live--
	e.abandoned++
	e.maybeCompact()
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	e := h.e
	if e == nil || h.slot < 0 || int(h.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.slot]
	return s.gen == h.gen && s.h != nil
}

// entry is one heap element: 24 bytes, no pointers into the heap itself.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// slot holds a scheduled event — the handler and the argument it is
// called with — plus the generation guard for its handles. A nil handler
// marks a cancelled or free slot.
type slot struct {
	h   func(arg any)
	arg any
	gen uint64
}

// nearHorizon splits the schedule in two. An event scheduled less than
// nearHorizon ahead of the clock goes on the near heap, every other one on
// the far heap. On the paper cell (7 500 closed-loop users, 3 s mean
// think, 720 sim-s) the delays are bimodal: of 12.44 M events, 11.47 M
// (92.2 %) are under 10 ms ahead — service bursts, network hops — and
// 0.89 M (7.2 %) are 250 ms or more: think timers and the 1 s and 5 s
// tickers. Only 0.6 % fall in between. In one heap, ≈ 4 800 parked think
// timers sat under every request-path sift. Any horizon in the gap splits
// the two modes; 100 ms also keeps the 50 ms metric windows and the scale
// tier's 20 ms cross-shard deliveries near. With it the near heap holds
// ≈ 15 entries on average at a pop. A 1 s horizon would be too long: a
// think time under 1 s is 28 % of a 3 s exponential, so ≈ 1 300 parked
// timers would sit in the near heap. The horizon only chooses a heap:
// firing order is (time, seq) across both, whatever its value.
const nearHorizon Time = 100 * Millisecond

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now  Time
	seq  uint64
	near queue // events scheduled less than nearHorizon ahead
	far  queue // the rest

	slots []slot
	free  []int32

	// live counts scheduled-and-not-cancelled events; abandoned counts
	// cancelled entries still sitting in either heap (live+abandoned ==
	// len(near)+len(far)).
	live      int
	abandoned int

	stopped bool
	fired   uint64
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful for tests and
// progress reporting).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled. Cancelled events
// are excluded, even if their abandoned heap entries have not been swept
// yet.
func (e *Engine) Pending() int { return e.live }

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it is always a simulation bug and silently reordering would corrupt the
// causality of the run.
func (e *Engine) At(t Time, fn func()) Handle { return e.AtArg(t, callFunc, fn) }

// callFunc is the handler behind At: the event's argument is the closure.
// A func value is pointer-shaped, so boxing it allocates nothing.
func callFunc(arg any) { arg.(func())() }

// AtArg schedules h(arg) at absolute virtual time t: the allocation-free
// form of At for callers whose handler is a package-level function (or a
// func value made once) and whose argument is a pointer they already
// hold. Events scheduled through At and AtArg share one sequence, so ties
// break in scheduling order across both. h must not be nil.
func (e *Engine) AtArg(t Time, h func(arg any), arg any) Handle {
	if h == nil {
		panic("des: nil event handler")
	}
	if t < e.now {
		panic("des: event scheduled in the past")
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		idx = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[idx]
	s.h, s.arg = h, arg
	e.live++
	en := entry{at: t, seq: e.seq, slot: idx}
	e.seq++
	if t-e.now < nearHorizon {
		e.near.push(en)
	} else {
		e.far.push(en)
	}
	return Handle{e: e, slot: idx, gen: s.gen}
}

// BatchEvent is one element of an AtBatch bulk insertion: an absolute
// virtual time and the closure to run there.
type BatchEvent struct {
	// At is the absolute virtual delivery time.
	At Time
	// Fn is the event body.
	Fn func()
}

// AtBatch schedules every event in evs, in slice order, exactly as the
// equivalent sequence of At calls would — same panics, same sequence
// numbers, same tie-break order — but grows the near heap and slot
// storage once up front instead of once per append (see reserve).
// Handles are not returned.
func (e *Engine) AtBatch(evs []BatchEvent) {
	e.reserve(len(evs))
	for _, ev := range evs {
		e.At(ev.At, ev.Fn)
	}
}

// reserve grows the near heap and slot storage, once, to take n more
// events without reallocating. The striper's window barrier calls it per
// destination before inserting a merged cross-shard batch, whose
// deliveries are network hops (20 ms on the scale tier) and so land near.
// The far heap grows by append: reserving it too would carry a second
// spare capacity on every engine for events that rarely come.
func (e *Engine) reserve(n int) {
	if need := len(e.near) + n; need > cap(e.near) {
		grown := make(queue, len(e.near), need+need/2)
		copy(grown, e.near)
		e.near = grown
	}
	if deficit := n - len(e.free); deficit > 0 {
		if need := len(e.slots) + deficit; need > cap(e.slots) {
			grown := make([]slot, len(e.slots), need+need/2)
			copy(grown, e.slots)
			e.slots = grown
		}
	}
}

// NextEvent reports the virtual time of the earliest pending event, or
// false when the schedule is empty. Cancelled events are skipped (and
// opportunistically swept). The striper's idle fast-forward uses it to
// jump over lookahead windows in which no shard can execute anything.
func (e *Engine) NextEvent() (Time, bool) {
	q := e.front()
	if q == nil {
		return 0, false
	}
	return (*q)[0].at, true
}

// After schedules fn d seconds of virtual time from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		panic("des: negative delay")
	}
	return e.AtArg(e.now+d, callFunc, fn)
}

// AfterArg schedules h(arg) d seconds of virtual time from now (see
// AtArg). Negative d panics.
func (e *Engine) AfterArg(d Time, h func(arg any), arg any) Handle {
	if d < 0 {
		panic("des: negative delay")
	}
	return e.AtArg(e.now+d, h, arg)
}

// Every schedules fn at now+d, then every d thereafter, until the returned
// Ticker is stopped. fn observes the tick time via Engine.Now.
func (e *Engine) Every(d Time, fn func()) *Ticker {
	if d <= 0 {
		panic("des: non-positive tick interval")
	}
	t := &Ticker{engine: e, period: d, fn: fn}
	t.arm()
	return t
}

// Ticker repeats an event at a fixed virtual period.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      func()
	handle  Handle
	stopped bool
}

func (t *Ticker) arm() { t.handle = t.engine.AfterArg(t.period, fireTicker, t) }

func fireTicker(arg any) {
	t := arg.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future ticks. Safe to call multiple times. The pending
// tick's closure is released immediately; it does not linger until the
// engine drains past its scheduled time.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Step executes the next pending event, advancing the clock to it. It
// returns false when no events remain.
func (e *Engine) Step() bool { return e.fireNext(Time(math.Inf(1))) }

// Run drains all events. It returns the final clock value.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.fireNext(Time(math.Inf(1))) {
	}
	return e.now
}

// RunUntil executes events with time <= deadline, then advances the clock
// to the deadline even if the heaps still hold later events.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped && e.fireNext(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop makes the current Run or RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// front returns the heap whose top is the earliest live event by (time,
// seq), or nil when nothing is pending. Abandoned entries it meets on top
// are popped and their slots freed.
func (e *Engine) front() *queue {
	for {
		q := &e.near
		if len(e.far) > 0 && (len(e.near) == 0 || lessEntry(e.far[0], e.near[0])) {
			q = &e.far
		}
		if len(*q) == 0 {
			return nil
		}
		en := (*q)[0]
		if e.slots[en.slot].h != nil {
			return q
		}
		q.pop()
		e.abandoned--
		e.freeSlot(en.slot)
	}
}

// fireNext fires the earliest live event if it is due by deadline and
// reports whether it did: one front lookup per fired event.
func (e *Engine) fireNext(deadline Time) bool {
	q := e.front()
	if q == nil || (*q)[0].at > deadline {
		return false
	}
	en := (*q)[0]
	q.pop()
	// Copy the event out and free the slot before firing: the handler may
	// schedule into it.
	s := &e.slots[en.slot]
	h, arg := s.h, s.arg
	e.freeSlot(en.slot)
	e.live--
	e.now = en.at
	e.fired++
	h(arg)
	return true
}

// freeSlot recycles a slot, bumping its generation so stale handles die.
func (e *Engine) freeSlot(idx int32) {
	s := &e.slots[idx]
	s.h, s.arg = nil, nil
	s.gen++
	e.free = append(e.free, idx)
}

// maybeCompact sweeps abandoned entries out of both heaps once they
// outnumber live ones. The bound keeps cancel-heavy workloads (stopped
// Tickers, re-armed timeouts) from growing the heaps past 2× their live
// size, while the threshold keeps the sweep amortized O(1) per
// cancellation.
func (e *Engine) maybeCompact() {
	if e.abandoned < 64 || e.abandoned <= e.live {
		return
	}
	e.sweep(&e.near)
	e.sweep(&e.far)
	e.abandoned = 0
}

// sweep drops q's abandoned entries, freeing their slots, and restores
// the heap order.
func (e *Engine) sweep(q *queue) {
	kept := (*q)[:0]
	for _, en := range *q {
		if e.slots[en.slot].h == nil {
			e.freeSlot(en.slot)
		} else {
			kept = append(kept, en)
		}
	}
	*q = kept
	kept.heapify()
}

// queue is a 4-ary min-heap of entries ordered by (time, seq): shallower
// than a binary heap (fewer cache-missing levels per sift) at the cost of
// three extra comparisons per level, a trade that wins for the
// small-to-medium heaps simulations hold.
type queue []entry

const arity = 4

func (h *queue) push(en entry) {
	*h = append(*h, en)
	h.siftUp(len(*h) - 1)
}

// pop removes the minimum entry.
func (h *queue) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 1 {
		old[:n].siftDown(0)
	}
}

// heapify is Floyd's heap construction: sift down from the last parent.
// A heap of zero or one entries is already in order.
func (h queue) heapify() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / arity; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h queue) siftUp(i int) {
	moving := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !lessEntry(moving, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = moving
}

func (h queue) siftDown(i int) {
	n := len(h)
	moving := h[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if lessEntry(h[c], h[min]) {
				min = c
			}
		}
		if !lessEntry(h[min], moving) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = moving
}

func lessEntry(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
