package cluster

import (
	"fmt"
	"math"
	"testing"

	"conscale/internal/des"
	"conscale/internal/rng"
	"conscale/internal/rubbos"
	"conscale/internal/server"
)

// The four builders below are the per-request visit-program builders the
// compiled program table replaced, kept verbatim as the oracle
// TestCompiledProgramsMatchBuilders compares the table against.

// webPhases builds the web tier visit: static processing then the
// synchronous call into the app tier. Injected edge delay dwells on the
// calling thread, like every network wait in the thread-based RPC model.
func (c *Cluster) webPhases(sv *rubbos.Servlet) []server.Phase {
	phases := []server.Phase{
		{Kind: server.PhaseCPU, Duration: des.Time(sv.WebCPU)},
	}
	if d := c.netDelay[App]; d > 0 {
		phases = append(phases, server.Phase{Kind: server.PhaseNet, Duration: d})
	}
	return append(phases, server.Phase{Kind: server.PhaseCall, Call: &server.OutCall{
		Target: c.appLB,
		Build:  func() []server.Phase { return c.appPhases(sv) },
	}})
}

// appPhases builds the app tier visit: business-logic CPU slices
// interleaved with synchronous DB queries gated by the server's own
// connection pool.
func (c *Cluster) appPhases(sv *rubbos.Servlet) []server.Phase {
	q := sv.Queries
	slice := des.Time(sv.AppCPU / float64(q+1))
	halfWait := des.Time(sv.AppWait / 2)
	phases := make([]server.Phase, 0, 2*q+4)
	phases = append(phases,
		server.Phase{Kind: server.PhaseSleep, Duration: halfWait},
		server.Phase{Kind: server.PhaseCPU, Duration: slice},
	)
	for i := 0; i < q; i++ {
		phases = append(phases, c.queryPhases(sv)...)
		phases = append(phases, server.Phase{Kind: server.PhaseCPU, Duration: slice})
	}
	return append(phases, server.Phase{Kind: server.PhaseSleep, Duration: halfWait})
}

// queryPhases builds one logical DB query from the app tier's point of
// view. Without a cache tier it is a single synchronous DB call gated by
// the server's connection pool. With a cache tier, the query first looks
// up Memcached; only misses (and all writes, which must reach the DB)
// continue to the DB call.
func (c *Cluster) queryPhases(sv *rubbos.Servlet) []server.Phase {
	var dbEdge []server.Phase
	if d := c.netDelay[DB]; d > 0 {
		dbEdge = []server.Phase{{Kind: server.PhaseNet, Duration: d}}
	}
	dbCall := server.Phase{Kind: server.PhaseCall, Call: &server.OutCall{
		Target:        c.dbLB,
		UseServerPool: true,
		Build:         func() []server.Phase { return c.dbPhases(sv) },
	}}
	if c.cacheLB.Len() == 0 {
		return append(dbEdge, dbCall)
	}
	var cacheEdge []server.Phase
	if d := c.netDelay[Cache]; d > 0 {
		cacheEdge = []server.Phase{{Kind: server.PhaseNet, Duration: d}}
	}
	lookup := server.Phase{Kind: server.PhaseCall, Call: &server.OutCall{
		Target: c.cacheLB,
		Build:  func() []server.Phase { return cachePhases() },
	}}
	if !sv.Write && c.rnd.Float64() < c.cfg.CacheHitRatio {
		return append(cacheEdge, lookup) // cache hit serves the query
	}
	return append(append(append(cacheEdge, lookup), dbEdge...), dbCall)
}

// cachePhases is one Memcached lookup: sub-millisecond CPU plus network
// dwell.
func cachePhases() []server.Phase {
	return []server.Phase{
		{Kind: server.PhaseSleep, Duration: 0.0002},
		{Kind: server.PhaseCPU, Duration: 0.00006},
	}
}

// dbPhases builds one DB query visit: protocol dwell around the CPU work,
// plus disk I/O for write/scan queries.
func (c *Cluster) dbPhases(sv *rubbos.Servlet) []server.Phase {
	halfWait := des.Time(sv.QueryWait / 2)
	phases := []server.Phase{
		{Kind: server.PhaseSleep, Duration: halfWait},
		{Kind: server.PhaseCPU, Duration: des.Time(sv.QueryCPU)},
	}
	if sv.QueryDisk > 0 {
		phases = append(phases, server.Phase{Kind: server.PhaseDisk, Duration: des.Time(sv.QueryDisk)})
	}
	return append(phases, server.Phase{Kind: server.PhaseSleep, Duration: halfWait})
}

// flatten renders a visit program depth-first, building every downstream
// visit where its call phase stands — the order a request executes (and
// draws) in.
func flatten(phases []server.Phase) []string {
	var out []string
	for _, ph := range phases {
		if ph.Kind != server.PhaseCall {
			out = append(out, fmt.Sprintf("%d:%v", ph.Kind, float64(ph.Duration)))
			continue
		}
		call := ph.Call
		var visit, scratch []server.Phase
		if call.BuildInto != nil {
			visit = call.BuildInto(&scratch)
		} else {
			visit = call.Build()
		}
		out = append(out, fmt.Sprintf("call %s pool=%v serverpool=%v {", call.Target.(interface{ Name() string }).Name(), call.Pool != nil, call.UseServerPool))
		out = append(out, flatten(visit)...)
		out = append(out, "}")
	}
	return out
}

// TestCompiledProgramsMatchBuilders checks, for every servlet of both
// mixes, with and without a cache tier, on a healthy network, with a
// delay on each edge and after losing the cache tier, that the compiled
// program expands to the phase sequence the per-request builders produced
// and draws the same number of hit/miss coins from the cluster stream.
func TestCompiledProgramsMatchBuilders(t *testing.T) {
	delays := []struct {
		name string
		set  func(c *Cluster)
	}{
		{"healthy", func(*Cluster) {}},
		{"web", func(c *Cluster) { c.SetNetDelay(Web, 0.003) }},
		{"app", func(c *Cluster) { c.SetNetDelay(App, 0.004) }},
		{"db", func(c *Cluster) { c.SetNetDelay(DB, 0.005) }},
		{"cache", func(c *Cluster) { c.SetNetDelay(Cache, 0.006) }},
		{"all", func(c *Cluster) {
			c.SetNetDelay(App, 0.004)
			c.SetNetDelay(DB, 0.005)
			c.SetNetDelay(Cache, 0.006)
		}},
		{"cache tier lost", func(c *Cluster) { c.KillVM(Cache) }},
	}
	for _, mix := range []rubbos.Mix{rubbos.BrowseOnly, rubbos.ReadWrite} {
		for _, caches := range []int{0, 1} {
			for _, delay := range delays {
				t.Run(fmt.Sprintf("%s/caches=%d/%s", mix, caches, delay.name), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Seed = 5
					cfg.Mix = mix
					cfg.CacheServers = caches
					oracle, compiled := New(cfg), New(cfg)
					// New bound the programs to a healthy network: every
					// other case is a rebind.
					oracle.rnd, compiled.rnd = rng.New(9), rng.New(9)
					delay.set(oracle)
					delay.set(compiled)
					for round := 0; round < 3; round++ {
						for i := range oracle.wl.Servlets {
							sv := &oracle.wl.Servlets[i]
							want := flatten(oracle.webPhases(sv))
							p := compiled.progs[i]
							p.sync()
							got := flatten(p.web)
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("%s round %d:\n got %v\nwant %v", sv.Name, round, got, want)
							}
							if a, b := oracle.rnd.Uint64(), compiled.rnd.Uint64(); a != b {
								t.Fatalf("%s round %d: the cluster streams diverged (a different number of draws)", sv.Name, round)
							}
						}
					}
				})
			}
		}
	}
}

// TestNetDelayBindsAtCallIssue pins when a request reads each edge's
// delay: the web -> app edge at Submit, the app -> db edge when the
// web -> app call issues. A delay set after Submit but before that call
// is seen on app -> db and not on web -> app; one cleared in the same
// gap is the other way round.
func TestNetDelayBindsAtCallIssue(t *testing.T) {
	const d = 0.25 // dwarfs every service time of the request
	rt := func(before, after func(c *Cluster)) float64 {
		cfg := DefaultConfig()
		cfg.DemandCV = 0
		c := New(cfg)
		before(c)
		var end des.Time
		c.Submit(func(ok bool) {
			if !ok {
				t.Fatal("request failed")
			}
			end = c.Eng.Now()
		})
		after(c)
		c.Eng.Run()
		return float64(end) // same seed: every run picks the same servlet
	}
	none := func(*Cluster) {}
	set := func(tier Tier, v des.Time) func(*Cluster) {
		return func(c *Cluster) { c.SetNetDelay(tier, v) }
	}
	base := rt(none, none)
	// A delay in force throughout is paid once per DB query.
	queries := math.Round((rt(set(DB, d), none) - base) / d)
	if queries < 1 {
		t.Fatal("the picked servlet makes no DB query")
	}
	for _, tc := range []struct {
		name          string
		before, after func(c *Cluster)
		want          float64
	}{
		{"db delay set after submit is seen", none, set(DB, d), base + queries*d},
		{"db delay cleared after submit is not seen", set(DB, d), set(DB, 0), base},
		{"app delay set after submit is not seen", none, set(App, d), base},
		{"app delay cleared after submit is still seen", set(App, d), set(App, 0), base + d},
	} {
		if got := rt(tc.before, tc.after); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: response time %.6f, want %.6f (healthy %.6f, %v queries)", tc.name, got, tc.want, base, queries)
		}
	}
}

// submitBatch is the open batch of the request-path fixtures: the
// BenchmarkSimulatorEventRate shape.
const submitBatch = 1024

// submitFixture returns a function that submits one batch of client
// requests to the paper cell and drains the engine, plus the count of
// successful completions.
func submitFixture() (round func(), completed *int) {
	c := New(DefaultConfig())
	completed = new(int)
	done := func(ok bool) {
		if ok {
			*completed++
		}
	}
	return func() {
		for i := 0; i < submitBatch; i++ {
			c.Submit(done)
		}
		c.Eng.Run()
	}, completed
}

// TestSubmitAllocBudget pins the whole request path on the paper cell:
// in warm batches no allocation recurs per request. What is left (about
// 0.001 per request) is the 50 ms metric windows closing; the budget of
// half an allocation fails on the first per-request one that comes back.
func TestSubmitAllocBudget(t *testing.T) {
	round, completed := submitFixture()
	round()
	round()
	perReq := testing.AllocsPerRun(10, round) / submitBatch
	if perReq >= 0.5 {
		t.Fatalf("a warm request allocates %.3f objects, want < 0.5", perReq)
	}
	if *completed != 13*submitBatch {
		t.Fatalf("%d requests completed, want %d", *completed, 13*submitBatch)
	}
}

// BenchmarkSubmit times one client request end to end (one op = one
// request through web, app and DB).
func BenchmarkSubmit(b *testing.B) {
	round, _ := submitFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += submitBatch {
		round()
	}
}
