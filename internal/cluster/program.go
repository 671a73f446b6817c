package cluster

import (
	"slices"

	"conscale/internal/admission"
	"conscale/internal/des"
	"conscale/internal/rubbos"
	"conscale/internal/server"
)

// topology is what a visit program depends on besides its servlet's
// demands: the injected delay of the RPC edges a request crosses after
// the web tier, and whether a cache tier is serving.
type topology struct {
	app, db, cache des.Time
	cached         bool
}

func (c *Cluster) topology() topology {
	return topology{
		app:    c.netDelay[App],
		db:     c.netDelay[DB],
		cache:  c.netDelay[Cache],
		cached: c.cacheLB.Len() > 0,
	}
}

// program is one servlet's visit programs, compiled when the cluster
// (or its workload) is built instead of once per request. The parts that
// depend only on the servlet are made once; the parts that embed an edge
// delay or the cache path are bound to a topology and rebound — as fresh
// slices — the first time they are used after it changed. A slice a
// request already holds is never written again, so a request keeps the
// edges it was issued with while later ones see the new ones:
//
//   - the web visit is read at Submit (client -> web, web -> app edges);
//   - the app visit is read when the web -> app call issues (app -> db and
//     app -> cache edges, cache membership, and — for a read servlet behind
//     a cache — one hit/miss coin per query, in query order);
//   - the db and cache visits depend on no edge.
type program struct {
	c     *Cluster
	sv    *rubbos.Servlet
	class admission.Class

	// Compiled fragments the bound programs are assembled from.
	webHead  []server.Phase // static processing at the web tier
	appHead  []server.Phase // first half of the dwell, first CPU slice
	appSlice []server.Phase // the CPU slice after each query
	appTail  []server.Phase // second half of the dwell
	db       []server.Phase // one DB query visit

	appCall, dbCall *server.OutCall

	bound topology
	web   []server.Phase
	// app is the whole app visit when no coin is flipped: no cache tier,
	// or a write servlet (writes must reach the DB).
	app []server.Phase
	// miss is one logical query that reaches the DB; hit is one the cache
	// serves. hit is nil unless the app visit is assembled per request.
	miss, hit []server.Phase
}

// compile builds the program table of a workload, index-aligned with its
// Servlets.
func (c *Cluster) compile(wl *rubbos.Workload) []*program {
	progs := make([]*program, len(wl.Servlets))
	for i := range wl.Servlets {
		progs[i] = c.compileServlet(&wl.Servlets[i])
	}
	return progs
}

func (c *Cluster) compileServlet(sv *rubbos.Servlet) *program {
	p := &program{c: c, sv: sv, class: admission.ClassBrowse}
	if sv.Write {
		p.class = admission.ClassReadWrite
	}
	slice := des.Time(sv.AppCPU / float64(sv.Queries+1))
	appHalfWait := des.Time(sv.AppWait / 2)
	dbHalfWait := des.Time(sv.QueryWait / 2)

	p.webHead = server.Compile([]server.Phase{{Kind: server.PhaseCPU, Duration: des.Time(sv.WebCPU)}})
	p.appHead = server.Compile([]server.Phase{
		{Kind: server.PhaseSleep, Duration: appHalfWait},
		{Kind: server.PhaseCPU, Duration: slice},
	})
	p.appSlice = server.Compile([]server.Phase{{Kind: server.PhaseCPU, Duration: slice}})
	p.appTail = server.Compile([]server.Phase{{Kind: server.PhaseSleep, Duration: appHalfWait}})
	// Protocol dwell around the CPU work, plus disk I/O for write/scan
	// queries.
	p.db = []server.Phase{
		{Kind: server.PhaseSleep, Duration: dbHalfWait},
		{Kind: server.PhaseCPU, Duration: des.Time(sv.QueryCPU)},
	}
	if sv.QueryDisk > 0 {
		p.db = append(p.db, server.Phase{Kind: server.PhaseDisk, Duration: des.Time(sv.QueryDisk)})
	}
	p.db = server.Compile(append(p.db, server.Phase{Kind: server.PhaseSleep, Duration: dbHalfWait}))

	p.appCall = &server.OutCall{Target: c.appLB, BuildInto: p.appVisit}
	p.dbCall = &server.OutCall{
		Target:        c.dbLB,
		UseServerPool: true,
		Build:         func() []server.Phase { return p.db },
	}
	p.bind(c.topology())
	return p
}

// edge returns the dwell a request spends on an RPC edge with injected
// delay d: nothing on a healthy edge. The delay dwells on the calling
// thread, like every network wait in the thread-based RPC model.
func edge(d des.Time) []server.Phase {
	if d <= 0 {
		return nil
	}
	return server.Compile([]server.Phase{{Kind: server.PhaseNet, Duration: d}})
}

func callPhase(out *server.OutCall) []server.Phase {
	return []server.Phase{{Kind: server.PhaseCall, Call: out}}
}

// bind rebuilds the topology-dependent programs. Every slice is new
// (slices.Concat never aliases its arguments).
func (p *program) bind(t topology) {
	p.bound = t

	// Web: static processing, then the synchronous call into the app tier.
	p.web = slices.Concat(p.webHead, edge(t.app), callPhase(p.appCall))

	// One logical DB query from the app tier's point of view. Without a
	// cache tier it is a single synchronous DB call gated by the app
	// server's connection pool. With one, the query first looks up
	// Memcached; only misses (and all writes) continue to the DB call.
	p.miss, p.hit = slices.Concat(edge(t.db), callPhase(p.dbCall)), nil
	if t.cached {
		lookup := slices.Concat(edge(t.cache), callPhase(p.c.cacheCall))
		p.miss = slices.Concat(lookup, p.miss)
		if !p.sv.Write {
			p.hit = lookup
		}
	}

	// App: business-logic CPU slices interleaved with the queries.
	p.app = p.appHead
	for i := 0; i < p.sv.Queries; i++ {
		p.app = slices.Concat(p.app, p.miss, p.appSlice)
	}
	p.app = slices.Concat(p.app, p.appTail)
}

// sync rebinds the program if the cluster's topology moved since it was
// last used.
func (p *program) sync() {
	if t := p.c.topology(); t != p.bound {
		p.bind(t)
	}
}

// appVisit is the web -> app call's BuildInto: the app visit as of the
// moment the call issues. Only a read servlet behind a cache tier varies
// per request; its visit is assembled from the compiled fragments into
// the downstream request's scratch, drawing one coin per query.
func (p *program) appVisit(scratch *[]server.Phase) []server.Phase {
	p.sync()
	if p.hit == nil {
		return p.app
	}
	c := p.c
	visit := append((*scratch)[:0], p.appHead...)
	for i := 0; i < p.sv.Queries; i++ {
		if c.rnd.Float64() < c.cfg.CacheHitRatio {
			visit = append(visit, p.hit...) // cache hit serves the query
		} else {
			visit = append(visit, p.miss...)
		}
		visit = append(visit, p.appSlice...)
	}
	visit = append(visit, p.appTail...)
	*scratch = visit
	return visit
}

// compileCacheCall builds the one Memcached lookup every servlet shares:
// sub-millisecond CPU plus network dwell.
func (c *Cluster) compileCacheCall() *server.OutCall {
	visit := server.Compile([]server.Phase{
		{Kind: server.PhaseSleep, Duration: 0.0002},
		{Kind: server.PhaseCPU, Duration: 0.00006},
	})
	return &server.OutCall{
		Target: c.cacheLB,
		Build:  func() []server.Phase { return visit },
	}
}
