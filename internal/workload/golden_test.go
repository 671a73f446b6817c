package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/rng"
)

// The open-loop golden pins the one issue path no committed artifact
// reaches: Poisson arrivals at the trace's rate with many requests out at
// once, a share of them failed by the system and a share rewritten by the
// Abandon limit. It was written by the commit before the in-flight
// records were pooled, so it compares each later commit with that one.
// Regenerate (only if the generator's trajectory legitimately changes)
// with:
//
//	GEN_OPENLOOP_GOLDEN=1 go test ./internal/workload -run TestOpenLoopGolden

// openLoopLedger renders the timeline and, below it, what the timeline
// rounds away: the totals, the tails, and a hash over every sample in
// completion order.
func openLoopLedger(g *Generator) string {
	var b strings.Builder
	fmt.Fprintln(&b, "time_s,users,throughput,mean_rt_ms,errors")
	for _, p := range g.Timeline() {
		rt := ""
		if !math.IsNaN(p.MeanRT) {
			rt = fmt.Sprintf("%.6f", p.MeanRT*1000)
		}
		fmt.Fprintf(&b, "%.0f,%d,%.2f,%s,%d\n", float64(p.Time), p.Users, p.Throughput, rt, p.Errors)
	}
	h := sha256.New()
	for _, s := range g.Samples() {
		fmt.Fprintf(h, "%.9f|%.9f|%t\n", float64(s.Finish), s.RT, s.OK)
	}
	tails := g.TailLatencies(5*des.Second, 50, 95, 99)
	fmt.Fprintf(&b, "samples=%d goodput=%d error_rate=%.9f\n", len(g.Samples()), g.GoodputTotal(), g.ErrorRate())
	fmt.Fprintf(&b, "p50=%.9f p95=%.9f p99=%.9f\n", tails[0], tails[1], tails[2])
	fmt.Fprintf(&b, "sha256=%x\n", h.Sum(nil))
	return b.String()
}

func TestOpenLoopGolden(t *testing.T) {
	const abandon = 0.150
	eng := des.New()
	svc := rng.New(99)
	var out, maxOut, refused, late int
	submit := func(done func(ok bool)) {
		out++
		if out > maxOut {
			maxOut = out
		}
		d := des.Time(svc.LogNormal(0.050, 0.6))
		ok := svc.Float64() >= 0.03
		if !ok {
			refused++
			d = des.Millisecond
		} else if float64(d) > abandon {
			late++
		}
		eng.After(d, func() {
			out--
			done(ok)
		})
	}
	g := NewGenerator(eng, rng.New(23), GeneratorConfig{
		Trace:     NewTrace(BigSpike, 600, 60*des.Second),
		ThinkTime: 2,
		OpenLoop:  true,
		Abandon:   abandon,
	}, submit)
	g.Start()
	eng.Run()

	// Not vacuous: requests overlapped (so in-flight state is per request,
	// not per generator), and both failure routes were taken.
	if maxOut < 8 {
		t.Fatalf("at most %d requests were out at once: the run no longer overlaps requests", maxOut)
	}
	if refused == 0 || late == 0 {
		t.Fatalf("%d requests refused by the system and %d answered past the Abandon limit: want both", refused, late)
	}
	if errs := len(g.Samples()) - g.GoodputTotal(); errs != refused+late {
		t.Fatalf("the generator counted %d failures, the system refused %d and answered %d late", errs, refused, late)
	}

	const file = "testdata/openloop_ledger.txt"
	got := openLoopLedger(g)
	if os.Getenv("GEN_OPENLOOP_GOLDEN") != "" {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the open-loop run diverged from the committed %s", file)
	}
}
