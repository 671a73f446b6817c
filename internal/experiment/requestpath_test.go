package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"conscale/internal/admission"
	"conscale/internal/chaos"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/rubbos"
	"conscale/internal/scaling"
	"conscale/internal/trace"
)

// The request-path goldens pin the two surfaces of workload → cluster →
// lb → server → des that no other committed artifact reaches: the cache
// tier's per-query hit/miss coin flips, and the fault paths (a VM killed
// with requests queued, an edge delay bound at call issue, admission
// sheds). They were written by the commit before the request path was
// rebuilt, so they compare each later commit with that one, not the
// build with itself. Regenerate (only if the simulator's trajectory
// legitimately changes) with:
//
//	GEN_REQUESTPATH_GOLDEN=1 go test ./internal/experiment -run TestRequestPathGolden

// keepAllTraces retains every sampled span tree, so the non-vacuity
// checks can count over them and the ledger can hash them.
const keepAllTraces = 1 << 20

// cacheTierCell is a 4-tier read/write cell: read servlets flip a hit/miss
// coin per query when the app visit is built, write servlets always go
// through to the DB without drawing.
func cacheTierCell() RunConfig {
	ccfg := cluster.DefaultConfig()
	ccfg.Mix = rubbos.ReadWrite
	ccfg.CacheServers = 1
	ccfg.CacheHitRatio = 0.8
	return RunConfig{
		Mode:      scaling.ConScale,
		TraceName: "big-spike",
		MaxUsers:  1500,
		Duration:  60 * des.Second,
		Seed:      11,
		ThinkTime: 3,
		Cluster:   &ccfg,
		Tracing:   &trace.Config{SampleRate: 1, Reservoir: keepAllTraces},
	}
}

// chaosKillAt is when faultCell crashes the first app VM.
const chaosKillAt = 50 * des.Second

// faultCell is an under-allocated read/write cell with a priority
// shedder on web and app, a delay window on every RPC edge, and the
// first of two app VMs crashed while its accept queue is populated.
func faultCell() RunConfig {
	ccfg := cluster.DefaultConfig()
	ccfg.Mix = rubbos.ReadWrite
	ccfg.App = 2
	ccfg.AppThreads = 14
	ccfg.DBConns = 4
	acfg, err := admission.Parse("priority:cap=300,browse=75")
	if err != nil {
		panic(err) // a constant spec
	}
	return RunConfig{
		Mode:      scaling.EC2,
		TraceName: "big-spike",
		MaxUsers:  4000,
		Duration:  120 * des.Second,
		Seed:      13,
		ThinkTime: 3,
		Cluster:   &ccfg,
		Admission: map[cluster.Tier]admission.Config{cluster.Web: acfg, cluster.App: acfg},
		// One request in four: Tracer.Slowest is quadratic in the trees kept.
		Tracing: &trace.Config{SampleRate: 0.25, Reservoir: keepAllTraces},
		Chaos: chaos.NewSchedule(
			chaos.Jitter(44*des.Second, 12*des.Second, cluster.DB, 4*des.Millisecond),
			chaos.Jitter(47*des.Second, 6*des.Second, cluster.App, 2*des.Millisecond),
			chaos.Crash(chaosKillAt, cluster.App, 0),
			chaos.Jitter(60*des.Second, 4*des.Second, cluster.Web, 3*des.Millisecond),
		),
	}
}

// requestLedger renders what the timeline CSV rounds away: the client
// totals and tails, every server's request-log totals from the
// warehouse, the shed counts, and a hash over every span of every
// request (server, times, outcome, segments) in trace order.
func requestLedger(t *testing.T, r *RunResult, roots []*trace.Span) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "goodput=%d error_rate=%.9f sheds=%d sheds_by_class=%v\n", r.Goodput, r.ErrorRate, r.Sheds, r.ShedsByClass)
	fmt.Fprintf(&b, "p50=%.9f p95=%.9f p99=%.9f mean_rt=%.9f\n", r.P50, r.P95, r.P99, r.MeanRT)
	fmt.Fprintln(&b, "server,completions,errors,rt_sum_s,concurrency_sum")
	for _, name := range r.Warehouse.Servers() {
		var done, errs int
		var rtSum, conc float64
		for _, w := range r.Warehouse.FineSince(name, 0) {
			done += w.Completions
			errs += w.Errors
			if w.Completions > 0 {
				rtSum += w.RT * float64(w.Completions)
			}
			conc += w.Concurrency
		}
		fmt.Fprintf(&b, "%s,%d,%d,%.9f,%.6f\n", name, done, errs, rtSum, conc)
	}
	h := sha256.New()
	spans := 0
	for _, root := range roots {
		root.Walk(func(sp *trace.Span, depth int) {
			spans++
			fmt.Fprintf(h, "%d|%d|%s|%s|%s|%d|%.9f|%.9f|%.9f|%.9f|%s", root.ID, depth, sp.Op, sp.Server, sp.LB, sp.PickInFlight,
				float64(sp.Start), float64(sp.Arrive), float64(sp.Admit), float64(sp.End), sp.Outcome)
			for _, seg := range sp.Segs {
				fmt.Fprintf(h, "|%s:%.9f-%.9f", seg.Kind, float64(seg.Start), float64(seg.End))
			}
			fmt.Fprintln(h)
		})
	}
	fmt.Fprintf(&b, "traces=%d spans=%d sha256=%x\n", len(roots), spans, h.Sum(nil))
	return b.String()
}

// tracedRoots returns every sampled request's span tree in trace order.
func tracedRoots(r *RunResult) []*trace.Span {
	roots := append([]*trace.Span(nil), r.Tracer.Slowest()...)
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	return roots
}

func checkRequestPathGolden(t *testing.T, name string, r *RunResult, roots []*trace.Span) {
	t.Helper()
	var tl bytes.Buffer
	if err := WriteTimelineCSV(&tl, r); err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string]string{
		"testdata/requestpath_" + name + "_timeline.csv": tl.String(),
		"testdata/requestpath_" + name + "_ledger.txt":   requestLedger(t, r, roots),
	} {
		if os.Getenv("GEN_REQUESTPATH_GOLDEN") != "" {
			if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s cell diverged from the committed %s", name, file)
		}
	}
}

// TestRequestPathGoldenCache pins the cache-tier cell and checks it is
// not vacuous: read servlets both hit and missed, and write servlets
// went through to the DB on every query.
func TestRequestPathGoldenCache(t *testing.T) {
	t.Parallel()
	r := Run(cacheTierCell())
	roots := tracedRoots(r)

	write := map[string]bool{}
	for _, sv := range rubbos.NewWorkload(rubbos.ReadWrite, 1).Servlets {
		write[sv.Name] = sv.Write
	}
	var hits, misses, writeLookups, writeQueries int
	for _, root := range roots {
		var lookups, queries int
		root.Walk(func(sp *trace.Span, _ int) {
			switch trace.TierOf(sp.Server) {
			case trace.TierCache:
				lookups++
			case trace.TierDB:
				queries++
			}
		})
		if write[root.Op] {
			writeLookups += lookups
			writeQueries += queries
			continue
		}
		hits += lookups - queries
		misses += queries
	}
	if hits <= 0 || misses <= 0 {
		t.Fatalf("read servlets saw %d cache hits and %d misses: the cell no longer exercises both coin-flip outcomes", hits, misses)
	}
	if writeQueries == 0 || writeQueries != writeLookups {
		t.Fatalf("write servlets made %d lookups and %d DB queries: every write must reach the DB", writeLookups, writeQueries)
	}
	checkRequestPathGolden(t, "cache", r, roots)
}

// TestRequestPathGoldenChaos pins the fault cell and checks it is not
// vacuous: the crash failed requests both queued and in flight, both
// admission tiers shed, and requests dwelt on each delayed edge. It also
// holds the client ledger through those failures.
func TestRequestPathGoldenChaos(t *testing.T) {
	t.Parallel()
	r := Run(faultCell())
	roots := tracedRoots(r)

	killed := ""
	for _, w := range r.FaultWindows {
		if w.Fault.Kind == chaos.VMCrash {
			killed = w.Target
		}
	}
	if killed == "" {
		t.Fatal("the crash fault never activated")
	}
	var killedQueued, killedInFlight, shedSpans int
	var netDwell [trace.NumTiers]int
	for _, root := range roots {
		root.Walk(func(sp *trace.Span, _ int) {
			if sp.Server == killed && sp.Outcome == trace.OutcomeFailed && sp.End >= chaosKillAt {
				if sp.Admit < 0 {
					killedQueued++
				} else {
					killedInFlight++
				}
			}
			if sp.Outcome == trace.OutcomeShed {
				shedSpans++
			}
			for _, seg := range sp.Segs {
				if seg.Kind == trace.SegNet {
					netDwell[trace.TierOf(sp.Server)]++
				}
			}
		})
	}
	if killedQueued == 0 || killedInFlight == 0 {
		t.Fatalf("crash of %s failed %d queued and %d in-flight requests: want both", killed, killedQueued, killedInFlight)
	}
	if r.Sheds == 0 || shedSpans == 0 {
		t.Fatalf("cluster counted %d sheds, the trace holds %d shed spans", r.Sheds, shedSpans)
	}
	if r.ShedsByClass[admission.ClassBrowse] == 0 {
		t.Fatalf("no browse-class shed: %v", r.ShedsByClass)
	}
	// The client ledger conserves requests across the kill and the sheds,
	// and a shed request is a failed one.
	checkClientLedger(t, r)
	if r.Client.Failed < int64(r.Sheds) {
		t.Fatalf("client ledger %+v counts fewer failures than the %d sheds", r.Client, r.Sheds)
	}
	// The client->web and web->app delays dwell on the web span, the
	// app->db delay on the app span.
	if netDwell[trace.TierWeb] == 0 || netDwell[trace.TierApp] == 0 {
		t.Fatalf("requests that dwelt on a delayed edge, by tier: %v", netDwell)
	}
	checkRequestPathGolden(t, "chaos", r, roots)
}
