package des

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Striper executes a partitioned simulation: each shard owns an
// independent Engine, and shards only interact through cross-shard events
// carrying at least a fixed minimum delay (the lookahead horizon). That
// restriction is what makes parallel execution safe — it is the classic
// conservative synchronization of parallel discrete-event simulation
// (Chandy/Misra/Bryant), specialised to a star/partition topology where
// the minimum inter-shard delay is known up front (here: the network edge
// between the client frontdoor and the server cells).
//
// Execution proceeds in windows of one lookahead each: every shard drains
// its own heap up to the window end, then the cross-shard events generated
// during the window are merged into their destination heaps in a
// deterministic order (timestamp, then source shard, then send order).
// Because shard heaps are disjoint and the merge order is fixed, the
// simulated trajectory is byte-identical whether the window bodies run
// sequentially or on the pinned worker pool (SetWorkers) — the property
// the scale-mode regression tests pin at every worker count.
//
// Three mechanisms keep the synchronization cost off the hot path:
//
//   - a persistent pool of shard-pinned workers (SetWorkers) that own
//     fixed shard ranges for the striper's lifetime and park on a
//     lightweight sense-reversing barrier between windows, instead of
//     spawning goroutines per window;
//   - adaptive window batching: after barriers with zero cross-shard
//     traffic the striper hands workers up to SetMaxBatch windows at
//     once, synchronizing between them with the cheap spin barrier only,
//     and an idle fast-forward that skips windows in which no shard has
//     anything to execute;
//   - allocation-free barriers: a send is a (handler, argument) pair
//     (SendArg), outboxes are sorted in place per shard (each worker sorts
//     its own, in parallel), k-way merged into a striper-owned scratch
//     buffer, and inserted into destination engines whose storage grows
//     once per barrier.
//
// The zero value is not usable; call NewStriper.
type Striper struct {
	lookahead Time
	now       Time
	shards    []*Shard
	pool      *stripePool

	batchK   int
	maxBatch int

	ends   []Time
	merged []delivery
	// perShard is one int per shard: the merge's outbox cursors, then the
	// barrier's per-destination delivery counts.
	perShard []int

	stats StripeStats
}

// StripeStats counts the striper's synchronization work; it exists so
// tests and reports can verify the adaptive machinery actually engaged.
type StripeStats struct {
	// Windows is the number of lookahead windows executed (shards ran).
	Windows uint64
	// Skipped is the number of windows the idle fast-forward jumped over
	// without running any shard.
	Skipped uint64
	// Batches is the number of worker dispatches (barrier round trips
	// through the heavyweight park/unpark path).
	Batches uint64
	// Merges is the number of barriers that carried cross-shard traffic.
	Merges uint64
	// Delivered is the total number of cross-shard events merged.
	Delivered uint64
}

// Shard couples one partition's Engine with its cross-shard outbox. All
// simulation state owned by a shard must only be touched by events running
// on its Engine; the only legal cross-partition interaction is Send.
type Shard struct {
	// Eng is the shard's private event engine. Components living on this
	// shard schedule on it exactly as in a single-engine simulation.
	Eng *Engine

	idx    int
	str    *Striper
	outbox []outMsg
}

// outMsg is one buffered cross-shard delivery in a sender's outbox: the
// delivery time, the send order within the window (the merge tie-break),
// the destination shard, and the event: the (handler, argument) pair
// Engine.AtArg takes.
type outMsg struct {
	at  Time
	seq int32
	to  int32
	h   func(arg any)
	arg any
}

// delivery is one merged, destination-tagged event in barrier order.
type delivery struct {
	at  Time
	to  int32
	h   func(arg any)
	arg any
}

// NewStriper returns a striper with n independent shards and the given
// lookahead horizon. The lookahead must equal (or lower-bound) the minimum
// delay of every cross-shard interaction; Send enforces it per event.
func NewStriper(n int, lookahead Time) *Striper {
	if n <= 0 {
		panic("des: striper needs at least one shard")
	}
	if lookahead <= 0 {
		panic("des: non-positive lookahead horizon")
	}
	s := &Striper{lookahead: lookahead, batchK: 1, maxBatch: 64}
	s.shards = make([]*Shard, n)
	for i := range s.shards {
		s.shards[i] = &Shard{Eng: New(), idx: i, str: s}
	}
	s.perShard = make([]int, n)
	return s
}

// Shards returns the shard count.
func (s *Striper) Shards() int { return len(s.shards) }

// Shard returns the i-th shard.
func (s *Striper) Shard(i int) *Shard { return s.shards[i] }

// Lookahead returns the synchronization horizon.
func (s *Striper) Lookahead() Time { return s.lookahead }

// Now returns the striper's clock: the end of the last completed window.
// Individual shard engines never run ahead of it by more than one window.
func (s *Striper) Now() Time { return s.now }

// Stats returns the synchronization counters accumulated so far.
func (s *Striper) Stats() StripeStats { return s.stats }

// Fired returns the total number of events executed across all shards.
func (s *Striper) Fired() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.Eng.Fired()
	}
	return n
}

// SetWorkers arms (or, for n <= 1, releases) the persistent shard-pinned
// worker pool: n long-lived goroutines, each owning a fixed contiguous
// range of shards, parked on a channel between batches and on a
// lightweight spin barrier between the windows of a batch. Shard pinning
// keeps each shard's heap hot in one worker's cache across thousands of
// windows. n is clamped to the shard count. Call Close (or SetWorkers(1))
// to release the goroutines; the striper then falls back to the
// sequential path, which produces a byte-identical trajectory.
func (s *Striper) SetWorkers(n int) {
	if s.pool != nil {
		s.pool.close()
		s.pool = nil
	}
	if n > len(s.shards) {
		n = len(s.shards)
	}
	if n <= 1 {
		return
	}
	p := &stripePool{str: s}
	p.workers = make([]*stripeWorker, n)
	for w := 0; w < n; w++ {
		wk := &stripeWorker{
			pool: p,
			lo:   w * len(s.shards) / n,
			hi:   (w + 1) * len(s.shards) / n,
			cmds: make(chan struct{}, 1),
		}
		p.workers[w] = wk
		go wk.loop()
	}
	s.pool = p
}

// Workers returns the size of the armed worker pool, or 1 when execution
// is sequential (no pool).
func (s *Striper) Workers() int {
	if s.pool == nil {
		return 1
	}
	return len(s.pool.workers)
}

// Close releases the persistent worker goroutines armed by SetWorkers.
// The striper remains usable afterwards on the sequential path, and
// SetWorkers may re-arm it. Close is idempotent and a no-op when no pool
// is armed.
func (s *Striper) Close() { s.SetWorkers(1) }

// SetMaxBatch caps the adaptive window batch: after a barrier with zero
// cross-shard traffic the striper doubles the number of windows it hands
// workers per dispatch, up to this cap; any barrier that carries traffic
// resets the batch to one window. k <= 1 disables batching (every window
// is its own dispatch). The default cap is 64. Batching never changes the
// trajectory — every window remains a synchronization point and the merge
// happens at the first window edge that produced traffic — it only
// changes how often workers park on the heavyweight barrier.
func (s *Striper) SetMaxBatch(k int) {
	if k < 1 {
		k = 1
	}
	s.maxBatch = k
	if s.batchK > k {
		s.batchK = k
	}
}

// Index returns the shard's position in the striper.
func (sh *Shard) Index() int { return sh.idx }

// Send schedules fn on shard `to` at the sender's current time plus delay.
// The delay must be at least the striper's lookahead horizon — that is the
// conservative-synchronization contract; a shorter delay panics, because
// the destination shard may already have simulated past the delivery time.
// Deliveries are applied at the next window barrier in a deterministic
// order, so the trajectory does not depend on how shard windows were
// scheduled onto workers. Events local to the shard should use Eng
// directly (no horizon constraint applies within a shard).
func (sh *Shard) Send(to int, delay Time, fn func()) {
	if fn == nil {
		panic("des: nil cross-shard event")
	}
	sh.SendArg(to, delay, callFunc, fn)
}

// SendArg schedules h(arg) on shard `to` at the sender's current time plus
// delay: the allocation-free form of Send, for a sender whose handler is a
// package-level function and whose argument is a pointer it already holds
// (see Engine.AtArg). The contract is Send's, and sends made through
// either share one order.
func (sh *Shard) SendArg(to int, delay Time, h func(arg any), arg any) {
	if to < 0 || to >= len(sh.str.shards) {
		panic(fmt.Sprintf("des: Send to shard %d of %d", to, len(sh.str.shards)))
	}
	if delay < sh.str.lookahead {
		panic(fmt.Sprintf("des: cross-shard delay %v below lookahead horizon %v", delay, sh.str.lookahead))
	}
	if h == nil {
		panic("des: nil cross-shard event")
	}
	sh.outbox = append(sh.outbox, outMsg{
		at:  sh.Eng.Now() + delay,
		seq: int32(len(sh.outbox)),
		to:  int32(to),
		h:   h,
		arg: arg,
	})
}

// sortOutbox orders the shard's buffered sends by (time, send order) —
// the per-shard half of the global (time, source, send order) delivery
// order. Outboxes are usually near-sorted (senders fire in time order),
// but varying per-send delays can interleave them, so a real sort is
// required for the k-way barrier merge's sorted-run precondition.
func (sh *Shard) sortOutbox() {
	slices.SortFunc(sh.outbox, func(a, b outMsg) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return int(a.seq - b.seq)
	})
}

// RunUntil advances the striped simulation to the deadline, one lookahead
// window at a time: run every shard to the window end, barrier, merge
// cross-shard deliveries, repeat. Consecutive idle windows are batched
// (see SetMaxBatch) or skipped outright when no shard has anything to
// execute. Every shard's clock ends at the deadline even if its heap
// drains early. It returns the final clock.
func (s *Striper) RunUntil(deadline Time) Time {
	for s.now < deadline {
		pending := s.outboxTotal() > 0 // setup-time sends await the first barrier
		if !pending {
			s.fastForward(deadline)
			if s.now >= deadline {
				break
			}
		}
		k := s.planBatch(deadline, pending)
		ran := s.runBatch(s.ends[:k])
		s.now = s.ends[ran-1]
		s.stats.Windows += uint64(ran)
		s.stats.Batches++
		traffic := s.outboxTotal() > 0
		s.deliver()
		if traffic {
			s.stats.Merges++
			s.batchK = 1
		} else if s.batchK < s.maxBatch {
			s.batchK *= 2
			if s.batchK > s.maxBatch {
				s.batchK = s.maxBatch
			}
		}
	}
	// Idle shards still observe a consistent clock: every engine ends at
	// the deadline even when the fast-forward skipped its last windows.
	for _, sh := range s.shards {
		if sh.Eng.Now() < deadline {
			sh.Eng.RunUntil(deadline)
		}
	}
	return s.now
}

// outboxTotal sums the buffered cross-shard sends across shards.
func (s *Striper) outboxTotal() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.outbox)
	}
	return n
}

// fastForward advances the striper clock over windows in which no shard
// can execute anything: with every outbox empty, no event can appear
// before the earliest one already scheduled, so every window that ends
// strictly before it is provably empty — running it would only advance
// engine clocks. The skip replays the exact window-end arithmetic of the
// executed path (iterated lookahead additions) so the surviving window
// boundaries are bit-identical to a run without fast-forwarding.
func (s *Striper) fastForward(deadline Time) {
	minNext := deadline + s.lookahead // sentinel beyond every skippable window
	for _, sh := range s.shards {
		if at, ok := sh.Eng.NextEvent(); ok && at < minNext {
			minNext = at
		}
	}
	for s.now+s.lookahead < minNext && s.now+s.lookahead < deadline {
		s.now += s.lookahead
		s.stats.Skipped++
	}
}

// planBatch fills s.ends with the next batch of window ends: up to the
// adaptive batch size, clamped at the deadline. Window ends are produced
// by iterated lookahead addition from the current clock — the same
// arithmetic at every batch size and worker count, so trajectories cannot
// diverge through float rounding. A pending setup-time send forces a
// single-window batch so it merges at the first possible barrier.
func (s *Striper) planBatch(deadline Time, pending bool) int {
	k := s.batchK
	if pending {
		k = 1
	}
	ends := s.ends[:0]
	e := s.now
	for len(ends) < k {
		e += s.lookahead
		if e >= deadline {
			ends = append(ends, deadline)
			break
		}
		ends = append(ends, e)
	}
	s.ends = ends
	return len(ends)
}

// runBatch executes the planned windows and returns how many ran: the
// batch stops at the first window edge that produced cross-shard traffic
// (that window still completes; the merge happens at its edge, exactly as
// in unbatched execution). Dispatches to the pinned worker pool when one
// is armed, else the sequential loop. Both orderings produce
// byte-identical trajectories.
func (s *Striper) runBatch(ends []Time) int {
	if s.pool != nil {
		return s.pool.run(ends)
	}
	for w, end := range ends {
		for _, sh := range s.shards {
			sh.Eng.RunUntil(end)
		}
		if s.outboxTotal() > 0 {
			for _, sh := range s.shards {
				sh.sortOutbox()
			}
			return w + 1
		}
	}
	return len(ends)
}

// deliver merges every shard's outbox into the destination engines in a
// deterministic order: by timestamp, then source shard, then send order.
// The destination engine breaks remaining ties by insertion order, so the
// merged schedule is identical on every run and at any worker count.
func (s *Striper) deliver() {
	merged := s.mergeOutboxes()
	if len(merged) == 0 {
		return
	}
	s.stats.Delivered += uint64(len(merged))
	// Grow each destination's storage once, then insert in merged order:
	// deliveries to different engines are independent, so each engine sees
	// its own subsequence in the barrier's order.
	counts := s.perShard
	clear(counts)
	for i := range merged {
		counts[merged[i].to]++
	}
	for d, n := range counts {
		s.shards[d].Eng.reserve(n)
	}
	for i := range merged {
		m := &merged[i]
		s.shards[m.to].Eng.AtArg(m.at, m.h, m.arg)
		m.h, m.arg = nil, nil // release the event promptly
	}
}

// mergeOutboxes drains all outboxes into the striper-owned scratch buffer
// in the global delivery order via a k-way merge of the per-shard sorted
// runs: each head comparison is (time, then source index), and within a
// shard the pre-sorted (time, send order) run preserves the final
// tie-break. This replaces a comparison sort over the concatenated
// batch — overlapping per-shard runs made insertion sort quadratic on
// large barriers — with O(total × shards) scans and zero allocations in
// steady state.
func (s *Striper) mergeOutboxes() []delivery {
	total := s.outboxTotal()
	if total == 0 {
		return nil
	}
	if cap(s.merged) < total {
		s.merged = make([]delivery, 0, total+total/2)
	}
	merged := s.merged[:0]
	heads := s.perShard
	clear(heads)
	for len(merged) < total {
		best := -1
		var bestAt Time
		for i, sh := range s.shards {
			h := heads[i]
			if h >= len(sh.outbox) {
				continue
			}
			if at := sh.outbox[h].at; best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		m := &s.shards[best].outbox[heads[best]]
		merged = append(merged, delivery{at: m.at, to: m.to, h: m.h, arg: m.arg})
		heads[best]++
	}
	s.merged = merged
	for _, sh := range s.shards {
		clear(sh.outbox) // release the events
		sh.outbox = sh.outbox[:0]
	}
	return merged
}

// stripePool is the persistent worker pool: long-lived goroutines pinned
// to fixed shard ranges, released per batch through per-worker channels
// and synchronized between the windows of a batch with a sense-reversing
// spin barrier (atomics only — no parking, no allocation).
type stripePool struct {
	str     *Striper
	workers []*stripeWorker
	wg      sync.WaitGroup

	ends   []Time
	sends  atomic.Int64
	stopAt atomic.Int64 // 1 + index of the window the batch stopped at; 0 while running

	arrived atomic.Int32
	gen     atomic.Uint32
}

// stripeWorker owns the contiguous shard range [lo, hi).
type stripeWorker struct {
	pool   *stripePool
	lo, hi int
	cmds   chan struct{}
}

// run dispatches one batch of windows to the pool and blocks until every
// worker has parked again. It returns the number of windows executed.
func (p *stripePool) run(ends []Time) int {
	p.ends = ends
	p.sends.Store(0)
	p.stopAt.Store(0)
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		w.cmds <- struct{}{}
	}
	p.wg.Wait()
	return int(p.stopAt.Load())
}

// close releases every worker goroutine. The pool must be idle.
func (p *stripePool) close() {
	for _, w := range p.workers {
		close(w.cmds)
	}
}

// barrier is the between-windows synchronization point: the last worker
// to arrive runs onLast (the batch continue/stop decision) before
// releasing the others. Spinners yield the processor so the barrier stays
// correct on machines with fewer cores than workers.
func (p *stripePool) barrier(onLast func()) {
	gen := p.gen.Load()
	if p.arrived.Add(1) == int32(len(p.workers)) {
		p.arrived.Store(0)
		onLast()
		p.gen.Add(1)
		return
	}
	for p.gen.Load() == gen {
		runtime.Gosched()
	}
}

// loop is the worker body: park on the command channel, execute the
// posted batch over the pinned shard range one window at a time, agree
// with the other workers at each window edge whether the batch continues,
// sort the owned outboxes (in parallel with the other workers), and park
// again. Shard state is only ever touched by the pinned owner while a
// batch is in flight; the main goroutine touches it only between batches,
// ordered by the channel send and the WaitGroup.
func (w *stripeWorker) loop() {
	p := w.pool
	shards := p.str.shards
	for range w.cmds {
		ends := p.ends
		for wi, end := range ends {
			for i := w.lo; i < w.hi; i++ {
				shards[i].Eng.RunUntil(end)
			}
			var mine int64
			for i := w.lo; i < w.hi; i++ {
				mine += int64(len(shards[i].outbox))
			}
			if mine > 0 {
				p.sends.Add(mine)
			}
			last := wi == len(ends)-1
			p.barrier(func() {
				if last || p.sends.Load() > 0 {
					p.stopAt.Store(int64(wi + 1))
				}
			})
			if p.stopAt.Load() != 0 {
				break
			}
		}
		for i := w.lo; i < w.hi; i++ {
			shards[i].sortOutbox()
		}
		p.wg.Done()
	}
}
