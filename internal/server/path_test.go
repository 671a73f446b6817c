package server

import (
	"math"
	"testing"

	"conscale/internal/des"
	"conscale/internal/rng"
)

// visitBatch is how many requests a visitFixture round submits per
// engine drain.
const visitBatch = 64

// visitFixture builds the hot shape of the request path — a CPU burst, a
// pooled synchronous call into a second server (dwell, CPU, disk),
// another burst, all jittered — and returns a function that submits one
// batch of caller-owned requests and drains the engine, plus the count
// of successful completions.
func visitFixture() (round func(reqs []Request), completed *int) {
	eng := des.New()
	rnd := rng.New(1)
	cfg := Config{Name: "tomcat1", Cores: 1, ThreadLimit: 60, AcceptQueue: 3000,
		Overhead: DefaultOverhead(), DemandCV: 0.3}
	front := New(eng, rnd.Split(), cfg)
	front.SetCallPool(NewConnPool(4))
	cfg.Name = "mysql1"
	cfg.DiskChans = 1
	back := New(eng, rnd.Split(), cfg)
	visit := []Phase{
		{Kind: PhaseSleep, Duration: 0.0002},
		{Kind: PhaseCPU, Duration: 0.0005},
		{Kind: PhaseDisk, Duration: 0.0003},
	}
	call := &OutCall{Target: back, UseServerPool: true, Build: func() []Phase { return visit }}
	program := []Phase{
		{Kind: PhaseCPU, Duration: 0.001},
		{Kind: PhaseCall, Call: call},
		{Kind: PhaseCPU, Duration: 0.0005},
	}
	completed = new(int)
	done := func(ok bool) {
		if ok {
			*completed++
		}
	}
	return func(reqs []Request) {
		for i := range reqs {
			reqs[i] = Request{Phases: program, Done: done}
			front.Submit(&reqs[i])
		}
		eng.Run()
	}, completed
}

// TestVisitAllocBudget requires that, warm, a visit allocates nothing
// beyond the request the caller brings: the downstream request comes from
// the calling server's pool, and every burst, dwell, grant and return is
// a (handler, request) pair.
func TestVisitAllocBudget(t *testing.T) {
	round, completed := visitFixture()
	reqs := make([]Request, visitBatch)
	round(reqs) // warm: pools, rings, engine slots
	if allocs := testing.AllocsPerRun(50, func() { round(reqs) }); allocs != 0 {
		t.Fatalf("a warm batch of %d visits allocates %.1f objects, want 0", visitBatch, allocs)
	}
	if *completed != 52*visitBatch {
		t.Fatalf("%d visits completed, want %d", *completed, 52*visitBatch)
	}
}

// BenchmarkVisit times one two-server visit (one op = one request).
func BenchmarkVisit(b *testing.B) {
	round, _ := visitFixture()
	reqs := make([]Request, visitBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += visitBatch {
		round(reqs)
	}
}

// TestCompiledProgramRunsIdentically runs the same jittered program on
// twin servers, compiled on one and as plain literals on the other
// (including a one-second phase, whose cached logarithm is the "not
// cached" zero): every completion lands on the same instant, bit for bit.
func TestCompiledProgramRunsIdentically(t *testing.T) {
	program := func() []Phase {
		return []Phase{
			{Kind: PhaseCPU, Duration: 0.0013},
			{Kind: PhaseSleep, Duration: 1},
			{Kind: PhaseDisk, Duration: 0.0004},
			{Kind: PhaseNet, Duration: 0.02},
			{Kind: PhaseSleep, Duration: 0},
		}
	}
	run := func(phases []Phase) []uint64 {
		eng := des.New()
		s := newTestServer(eng, Config{DemandCV: 0.4, DiskChans: 1, ThreadLimit: 4})
		var ends []uint64
		for i := 0; i < 200; i++ {
			s.Submit(&Request{Phases: phases, Done: func(bool) {
				ends = append(ends, math.Float64bits(float64(eng.Now())))
			}})
		}
		eng.Run()
		return ends
	}
	plain, compiled := run(program()), run(Compile(program()))
	if len(plain) != 200 || len(compiled) != len(plain) {
		t.Fatalf("%d and %d completions, want 200 each", len(plain), len(compiled))
	}
	for i := range plain {
		if plain[i] != compiled[i] {
			t.Fatalf("completion %d differs: %x plain, %x compiled", i, plain[i], compiled[i])
		}
	}
}

// TestPushDone pins the completion stack: handlers run newest first, then
// the Done that was in place; a service that completes a request by
// calling Done directly unwinds the same way; and a handler may hand the
// request back to its pool.
func TestPushDone(t *testing.T) {
	var order []string
	note := func(arg any, _ *Request, ok bool) {
		if !ok {
			order = append(order, "failed")
		}
		order = append(order, arg.(string))
	}
	var pool RequestPool
	req := pool.Get()
	req.Done = func(bool) { order = append(order, "base") }
	req.PushDone(note, "first")
	// A wrapper installed between two pushes, the way foreign code does.
	inner := req.Done
	req.Done = func(ok bool) { order = append(order, "wrapper"); inner(ok) }
	req.PushDone(func(arg any, r *Request, ok bool) {
		note(arg, r, ok)
	}, "second")
	req.PushDone(func(_ any, r *Request, _ bool) { order = append(order, "third") }, nil)
	req.Done(false)
	want := []string{"third", "failed", "second", "wrapper", "failed", "first", "base"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}

	// Recycling from inside the last handler, with a base Done beneath it.
	order = nil
	req.Done = func(bool) { order = append(order, "base") }
	req.PushDone(func(_ any, r *Request, _ bool) { pool.Put(r) }, nil)
	req.Done(true)
	if len(order) != 1 || !req.recycled {
		t.Fatalf("ran %v, recycled %v", order, req.recycled)
	}
	if again := pool.Get(); again != req || again.recycled || again.Done != nil {
		t.Fatal("the pool did not hand the zeroed request back")
	}
}

// TestRecycledRequestPanics pins the pool's invariants: a request handed
// back may not be submitted, stepped or handed back again, and a request
// the caller built may not enter a pool.
func TestRecycledRequestPanics(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{})
	var pool RequestPool
	recycled, pending := pool.Get(), pool.Get()
	pool.Put(recycled)
	pending.PushDone(func(any, *Request, bool) {}, nil)
	for name, fn := range map[string]func(){
		"Submit":        func() { s.Submit(recycled) },
		"step":          func() { resume(recycled) },
		"second Put":    func() { pool.Put(recycled) },
		"foreign Put":   func() { pool.Put(&Request{}) },
		"unfinished":    func() { pool.Put(pending) },
		"Done past end": func() { r := &Request{}; r.PushDone(func(any, *Request, bool) {}, nil); r.Done(true); r.popDone(true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
