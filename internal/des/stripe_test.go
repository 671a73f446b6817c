package des

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// stripeScenario wires a ring of chattering shards, runs it on the given
// number of pinned workers (1 = the sequential loop) and returns the
// per-shard execution log. Each shard ticks locally every 3 ms and, on
// each tick, sends a message one step around the ring with a delay that
// varies deterministically with the tick; receivers log (now, from, k).
func stripeScenario(workers int) []string {
	const shards = 5
	const horizon = 10 * Millisecond
	s := NewStriper(shards, horizon)
	s.SetWorkers(workers)
	defer s.Close()

	logs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		sh := s.Shard(i)
		tick := 0
		sh.Eng.Every(3*Millisecond, func() {
			tick++
			k := tick
			to := (i + 1) % shards
			delay := horizon + Time(k%7)*Millisecond
			sh.Send(to, delay, func() {
				logs[to] = append(logs[to], fmt.Sprintf("t=%.6f from=%d k=%d", float64(s.Shard(to).Eng.Now()), i, k))
			})
			// A same-timestamp second message exercises the (src, seq)
			// tie-break in the barrier merge.
			if k%4 == 0 {
				sh.Send(to, delay, func() {
					logs[to] = append(logs[to], fmt.Sprintf("t=%.6f from=%d k=%d dup", float64(s.Shard(to).Eng.Now()), i, k))
				})
			}
		})
	}
	s.RunUntil(500 * Millisecond)
	var flat []string
	for i, l := range logs {
		flat = append(flat, fmt.Sprintf("-- shard %d --", i))
		flat = append(flat, l...)
	}
	return flat
}

// sameStripeLog fails the test unless a run of the chatter scenario on the
// given number of workers logs exactly what the sequential loop logged.
func sameStripeLog(t *testing.T, seq []string, workers, trial int) {
	t.Helper()
	par := stripeScenario(workers)
	if len(par) != len(seq) {
		t.Fatalf("workers=%d trial %d: log has %d lines, sequential %d", workers, trial, len(par), len(seq))
	}
	for i := range seq {
		if par[i] != seq[i] {
			t.Fatalf("workers=%d trial %d: log diverges at line %d:\nseq: %s\npar: %s", workers, trial, i, seq[i], par[i])
		}
	}
}

// TestStriperParallelMatchesSequential runs every shard on a worker of its
// own — the most adversarial scheduling the striper has to stay
// deterministic under — against the sequential loop.
func TestStriperParallelMatchesSequential(t *testing.T) {
	seq := stripeScenario(1)
	if len(seq) < 100 {
		t.Fatalf("scenario too small to be meaningful: %d log lines", len(seq))
	}
	for trial := 0; trial < 3; trial++ {
		sameStripeLog(t, seq, 5, trial)
	}
}

// TestStriperWorkerPoolMatchesSequential is the contention half of the
// determinism contract: the pinned worker pool must reproduce the
// sequential trajectory exactly at worker counts below, at, and above
// both GOMAXPROCS and the shard count (run under -race in CI).
func TestStriperWorkerPoolMatchesSequential(t *testing.T) {
	seq := stripeScenario(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0), 5 + 1} {
		for trial := 0; trial < 2; trial++ {
			sameStripeLog(t, seq, workers, trial)
		}
	}
}

// idleScenario alternates short chatter bursts with long silent stretches
// so every adaptive path runs: per-window merges during bursts, window
// batching in the lulls between scheduled events, and the idle
// fast-forward across the fully empty stretches.
func idleScenario(configure func(*Striper)) ([]string, StripeStats) {
	const shards = 4
	const horizon = 10 * Millisecond
	s := NewStriper(shards, horizon)
	if configure != nil {
		configure(s)
	}
	defer s.Close()

	var log []string
	for i := 0; i < shards; i++ {
		i := i
		sh := s.Shard(i)
		for burst := 0; burst < 3; burst++ {
			burst := burst
			// Bursts are ~2 s apart; each schedules a short local cascade
			// that sends once across the stripe.
			sh.Eng.At(Time(burst)*2+Time(i)*50*Millisecond, func() {
				to := (i + 1) % shards
				sh.Send(to, horizon+Time(burst)*Millisecond, func() {
					log = append(log, fmt.Sprintf("t=%.6f to=%d burst=%d", float64(s.Shard(to).Eng.Now()), to, burst))
				})
			})
		}
	}
	// A purely local busy stretch on shard 0 between 3 s and 5 s: events
	// every half-window with zero cross-shard traffic. Fast-forward cannot
	// skip these windows, so this is where adaptive batching must collapse
	// many windows into one barrier iteration.
	host := s.Shard(0).Eng
	ticks := 0
	var tk *Ticker
	host.At(3*Second, func() {
		tk = host.Every(horizon/2, func() { ticks++ })
	})
	host.At(5*Second, func() { tk.Stop() })
	s.RunUntil(7 * Second)
	log = append(log, fmt.Sprintf("ticks=%d", ticks))
	return log, s.Stats()
}

// TestStriperIdleFastForward pins that long empty stretches are skipped,
// not simulated window by window, and that skipping does not change the
// trajectory relative to a striper with batching and fast-forward forced
// off via SetMaxBatch(1) — which still fast-forwards — and to the pinned
// worker pool.
func TestStriperIdleFastForward(t *testing.T) {
	base, baseStats := idleScenario(func(s *Striper) { s.SetMaxBatch(1) })
	if len(base) == 0 {
		t.Fatal("scenario produced no deliveries")
	}
	adaptive, stats := idleScenario(nil)
	if len(adaptive) != len(base) {
		t.Fatalf("adaptive run has %d deliveries, baseline %d", len(adaptive), len(base))
	}
	for i := range base {
		if adaptive[i] != base[i] {
			t.Fatalf("trajectory diverges at %d:\nbase:     %s\nadaptive: %s", i, base[i], adaptive[i])
		}
	}
	pooled, _ := idleScenario(func(s *Striper) { s.SetWorkers(3) })
	for i := range base {
		if pooled[i] != base[i] {
			t.Fatalf("pooled trajectory diverges at %d:\nbase:   %s\npooled: %s", i, base[i], pooled[i])
		}
	}
	// 7 s / 10 ms = 700 windows; the idle stretches outside the bursts and
	// the 3–5 s ticker run are empty and must be skipped, not simulated.
	if stats.Skipped < 300 {
		t.Fatalf("fast-forward skipped only %d windows of ~700", stats.Skipped)
	}
	// The adaptive run executes the same busy windows plus at most the
	// empty tails of batches planned past the end of a busy stretch; the
	// overshoot is bounded by the batch cap per stretch.
	if stats.Windows < baseStats.Windows || stats.Windows > baseStats.Windows+2*64 {
		t.Fatalf("adaptive run executed %d windows, baseline %d (+overshoot cap %d)",
			stats.Windows, baseStats.Windows, 2*64)
	}
	if stats.Batches*3 >= baseStats.Batches {
		t.Fatalf("adaptive run used %d barrier iterations for %d windows, baseline %d — batching is not engaging",
			stats.Batches, stats.Windows, baseStats.Batches)
	}
	if stats.Merges == 0 || stats.Delivered == 0 {
		t.Fatalf("no merges recorded: %+v", stats)
	}
}

// TestStriperBatchEdgeBoundary pins the conservative contract inside a
// batched stretch: a send with delay exactly one lookahead, fired in the
// middle of a grown window batch, must land exactly on the next window
// edge and be delivered there — the batch must stop at that edge rather
// than run past it.
func TestStriperBatchEdgeBoundary(t *testing.T) {
	const horizon = 10 * Millisecond
	for _, workers := range []int{1, 3} {
		s := NewStriper(3, horizon)
		s.SetWorkers(workers)
		var gotAt Time = -1
		// Quiet until 995 ms: the adaptive batch grows to its cap long
		// before the sender fires mid-window at t=995ms.
		s.Shard(0).Eng.At(995*Millisecond, func() {
			s.Shard(0).Send(1, horizon, func() { gotAt = s.Shard(1).Eng.Now() })
		})
		s.RunUntil(2 * Second)
		s.Close()
		// Compare against the identical float expression the simulation
		// computes (send time + lookahead), not a re-derived constant.
		if want := 995*Millisecond + horizon; gotAt != want {
			t.Fatalf("workers=%d: boundary message delivered at %v, want %v", workers, gotAt, want)
		}
		if st := s.Stats(); st.Skipped == 0 {
			t.Fatalf("workers=%d: expected idle windows to be skipped, stats %+v", workers, st)
		}
	}
}

// TestStriperMergeMatchesReferenceSort is the k-way merge's property
// test: for arbitrary outbox contents (including heavy timestamp ties
// and per-shard interleavings), the merged delivery order must equal the
// historical comparator's (time, source shard, send order) stable sort.
func TestStriperMergeMatchesReferenceSort(t *testing.T) {
	type ref struct {
		at       Time
		src, seq int
		id       int
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		shards := 1 + rng.Intn(6)
		s := NewStriper(shards, Millisecond)
		var want []ref
		id := 0
		for src := 0; src < shards; src++ {
			n := rng.Intn(12)
			sh := s.shards[src]
			for k := 0; k < n; k++ {
				// Small timestamp domain forces cross- and intra-shard ties.
				at := Time(rng.Intn(5)) * Millisecond
				id++
				capture := id
				sh.outbox = append(sh.outbox, outMsg{at: at, seq: int32(k), to: 0, h: callFunc, arg: func() { _ = capture }})
				want = append(want, ref{at: at, src: src, seq: k, id: capture})
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			if want[i].src != want[j].src {
				return want[i].src < want[j].src
			}
			return want[i].seq < want[j].seq
		})
		for _, sh := range s.shards {
			sh.sortOutbox()
		}
		got := s.mergeOutboxes()
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d deliveries, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].at != want[i].at {
				t.Fatalf("trial %d: delivery %d at %v, want %v (src=%d seq=%d)",
					trial, i, got[i].at, want[i].at, want[i].src, want[i].seq)
			}
		}
	}
}

// TestStriperBarrierAllocFree pins the allocation-free barrier: once the
// scratch buffers and engine storage have warmed up, a traffic-carrying
// window — send, sort outboxes, k-way merge, insert, fire — must not
// allocate at all, in the closure form (one closure made at set-up) and
// in the typed form (a package-level handler over a pointer the sender
// holds). Every sending event is pre-scheduled so the measured op is pure
// striper machinery.
func TestStriperBarrierAllocFree(t *testing.T) {
	const horizon = Millisecond
	const totalWindows = 320
	var landed int
	fn := func() { landed++ }
	forms := map[string]func(sh *Shard, to int, delay Time){
		"Send":    func(sh *Shard, to int, delay Time) { sh.Send(to, delay, fn) },
		"SendArg": func(sh *Shard, to int, delay Time) { sh.SendArg(to, delay, countLanding, &landed) },
	}
	for name, send := range forms {
		send := send
		t.Run(name, func(t *testing.T) {
			landed = 0
			s := NewStriper(4, horizon)
			for w := 0; w < totalWindows; w++ {
				at := Time(w) * horizon
				for i := 0; i < 4; i++ {
					i := i
					sh := s.Shard(i)
					sh.Eng.At(at, func() {
						for k := 0; k < 8; k++ {
							send(sh, (i+1+k)%4, horizon+Time(k%3)*horizon)
						}
					})
				}
			}
			for w := 0; w < 64; w++ { // warm scratch, outboxes, heaps, slots
				s.RunUntil(s.Now() + horizon)
			}
			warm := landed
			allocs := testing.AllocsPerRun(200, func() {
				s.RunUntil(s.Now() + horizon)
			})
			if allocs != 0 {
				t.Fatalf("loaded window barrier allocates %.1f objects/op, want 0", allocs)
			}
			if landed-warm < 200*32 {
				t.Fatalf("%d sends landed over the measured windows, want 32 a window", landed-warm)
			}
		})
	}
}

// countLanding is a typed cross-shard event: its argument is the counter.
func countLanding(arg any) { *arg.(*int)++ }

// TestStriperWorkersLifecycle covers the pool lifecycle: arming, clamping
// to the shard count, re-arming at a new width, Close idempotence, and
// sequential fallback after Close — all on one striper whose trajectory
// must be unaffected throughout.
func TestStriperWorkersLifecycle(t *testing.T) {
	s := NewStriper(3, Millisecond)
	if s.Workers() != 1 {
		t.Fatalf("fresh striper reports %d workers, want 1", s.Workers())
	}
	s.SetWorkers(8) // clamped to shard count
	if s.Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(8) on 3 shards, want 3", s.Workers())
	}
	fired := 0
	s.Shard(0).Eng.At(0, func() { s.Shard(0).Send(2, Millisecond, func() { fired++ }) })
	s.RunUntil(5 * Millisecond)
	s.SetWorkers(2) // re-arm narrower mid-life
	s.Shard(1).Eng.At(s.Now(), func() { s.Shard(1).Send(0, Millisecond, func() { fired++ }) })
	s.RunUntil(10 * Millisecond)
	s.Close()
	s.Close() // idempotent
	if s.Workers() != 1 {
		t.Fatalf("Workers() = %d after Close, want 1", s.Workers())
	}
	s.Shard(2).Eng.At(s.Now(), func() { s.Shard(2).Send(1, Millisecond, func() { fired++ }) })
	s.RunUntil(15 * Millisecond)
	if fired != 3 {
		t.Fatalf("delivered %d sends across the lifecycle, want 3", fired)
	}
}

func TestStriperLookaheadViolationPanics(t *testing.T) {
	s := NewStriper(2, 10*Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below the lookahead horizon did not panic")
		}
	}()
	s.Shard(0).Send(1, 5*Millisecond, func() {})
}

func TestStriperBadDestinationPanics(t *testing.T) {
	s := NewStriper(2, Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Send to an out-of-range shard did not panic")
		}
	}()
	s.Shard(0).Send(2, Millisecond, func() {})
}

// Typed sends and closures are one kind of cross-shard event: at one
// delivery time they land in send order across both forms, and the outbox
// keeps neither alive past the barrier.
func TestStriperTypedSends(t *testing.T) {
	s := NewStriper(2, Millisecond)
	var order []string
	note := func(arg any) { order = append(order, arg.(string)) }
	sh := s.Shard(0)
	sh.SendArg(1, Millisecond, note, "a")
	sh.Send(1, Millisecond, func() { order = append(order, "b") })
	sh.SendArg(1, Millisecond, note, "c")
	s.RunUntil(2 * Millisecond)
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("landed %s, want [a b c]", got)
	}
	for _, m := range sh.outbox[:cap(sh.outbox)] {
		if m.h != nil || m.arg != nil {
			t.Fatal("a delivered send is still referenced from the outbox")
		}
	}
	for _, m := range s.merged[:cap(s.merged)] {
		if m.h != nil || m.arg != nil {
			t.Fatal("a delivered send is still referenced from the merge scratch")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	sh.SendArg(1, Millisecond, nil, nil)
}

// TestStriperHorizonBoundary pins the conservative contract at its edge:
// a message sent with delay exactly equal to the lookahead lands at the
// next window boundary and must still be delivered (not lost or late).
func TestStriperHorizonBoundary(t *testing.T) {
	const horizon = 10 * Millisecond
	s := NewStriper(2, horizon)
	var gotAt Time = -1
	s.Shard(0).Eng.At(0, func() {
		s.Shard(0).Send(1, horizon, func() { gotAt = s.Shard(1).Eng.Now() })
	})
	s.RunUntil(3 * horizon)
	if gotAt != horizon {
		t.Fatalf("boundary message delivered at %v, want %v", gotAt, Time(horizon))
	}
}

// TestStriperClocksAdvance checks every shard's clock reaches the
// deadline even when heaps drain early — components hosted on idle shards
// rely on a consistent notion of now.
func TestStriperClocksAdvance(t *testing.T) {
	s := NewStriper(3, 7*Millisecond)
	s.Shard(1).Eng.After(Millisecond, func() {})
	end := s.RunUntil(100 * Millisecond)
	if end != 100*Millisecond {
		t.Fatalf("RunUntil returned %v, want 100ms", end)
	}
	for i := 0; i < s.Shards(); i++ {
		if now := s.Shard(i).Eng.Now(); now != 100*Millisecond {
			t.Fatalf("shard %d clock = %v, want 100ms", i, now)
		}
	}
	if s.Now() != 100*Millisecond {
		t.Fatalf("striper clock = %v, want 100ms", s.Now())
	}
}

// TestStriperFiredCounts sanity-checks the aggregate event counter.
func TestStriperFiredCounts(t *testing.T) {
	s := NewStriper(2, Millisecond)
	s.Shard(0).Eng.At(0, func() {})
	s.Shard(1).Eng.At(0, func() { s.Shard(1).Send(0, Millisecond, func() {}) })
	s.RunUntil(10 * Millisecond)
	if got := s.Fired(); got != 3 {
		t.Fatalf("Fired() = %d, want 3", got)
	}
}

// TestStriperSendBeforeRun verifies setup-time sends (clocks at zero, no
// window in flight) are queued and delivered once the run starts.
func TestStriperSendBeforeRun(t *testing.T) {
	s := NewStriper(2, Millisecond)
	fired := false
	s.Shard(0).Send(1, 2*Millisecond, func() { fired = true })
	s.RunUntil(5 * Millisecond)
	if !fired {
		t.Fatal("setup-time cross-shard send was never delivered")
	}
}

// BenchmarkStriperBarrierLoaded is the steady-state cost of a
// traffic-carrying window barrier: run the window, sort per-shard
// outboxes, k-way merge, bulk-insert 32 deliveries. The re-arming tick
// closures are created once at setup, so steady state is 0 allocs/op.
func BenchmarkStriperBarrierLoaded(b *testing.B) {
	b.ReportAllocs()
	const horizon = Millisecond
	s := NewStriper(4, horizon)
	fn := func() {}
	for i := 0; i < 4; i++ {
		i := i
		sh := s.Shard(i)
		var tick func()
		tick = func() {
			for k := 0; k < 8; k++ {
				sh.Send((i+1+k)%4, horizon+Time(k%3)*horizon, fn)
			}
			sh.Eng.At(sh.Eng.Now()+horizon, tick)
		}
		sh.Eng.At(0, tick)
	}
	for w := 0; w < 64; w++ { // warm scratch, outboxes, heaps, slots
		s.RunUntil(s.Now() + horizon)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunUntil(s.Now() + horizon)
	}
}

// BenchmarkStriperIdleFastForward measures skipping a one-second idle
// stretch (1000 empty lookahead windows) per op: the fast-forward must
// make idle time nearly free instead of costing 1000 barriers.
func BenchmarkStriperIdleFastForward(b *testing.B) {
	b.ReportAllocs()
	s := NewStriper(4, Millisecond)
	sh := s.Shard(0)
	var tick func()
	tick = func() { sh.Eng.At(sh.Eng.Now()+Second, tick) }
	sh.Eng.At(0, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunUntil(s.Now() + Second)
	}
}
