package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/forensics"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// The armed goldens pin what the observer layers write, not only the
// trajectory they watch: the OpenMetrics scrape timeline, the forensics
// report, the detector's per-tick series, the twin's sample CSV, the
// audit trail and the client timeline of one cell with all four
// observers armed. They were written by the commit before the client
// tap, the selecting window tail and the append-only exposition
// replaced the submit wrappers, the per-tick sort and the per-sample
// strings, so they compare each later commit with that one, not the
// build with itself. Regenerate (only if an observer's output
// legitimately changes) with:
//
//	GEN_ARMED_GOLDEN=1 go test ./internal/experiment -run TestArmedGolden

// armedCell is a 180-sim-s EC2 cell on the spiking trace with tracing
// 1/64, telemetry (1 s scrapes), forensics and the twin armed — the
// observer set of the paper_armed benchmark workload, sized so that the
// spike opens a fluctuation episode and burns SLO budget.
func armedCell() RunConfig {
	return RunConfig{
		Mode:      scaling.EC2,
		TraceName: workload.BigSpike,
		MaxUsers:  5000,
		Duration:  180 * des.Second,
		Seed:      5,
		ThinkTime: 3,
		Tracing:   &trace.Config{SampleRate: 1.0 / 64},
		Telemetry: &TelemetryOptions{ScrapeInterval: des.Second},
		Forensics: &forensics.Config{},
		Twin:      &twin.Config{},
	}
}

// exactFloat renders a float so that two values print alike only when
// their bits are equal (NaN aside, which every producer here writes as
// the one canonical NaN).
func exactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// detectorSeries renders the detector's per-tick evaluation series at
// full float precision: the windowed p99 is an interpolation of two
// order statistics, and the golden must notice a one-ulp move.
func detectorSeries(points []forensics.TickPoint) string {
	var b strings.Builder
	b.WriteString("time_s,p99_s,baseline_s,in_episode\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%s,%s,%t\n", exactFloat(float64(p.Time)), exactFloat(p.P99), exactFloat(p.Baseline), p.InEpisode)
	}
	return b.String()
}

// armedArtifacts renders every observer artifact of an armed run, keyed
// by golden file name; om is the scrape timeline the run streamed.
func armedArtifacts(t *testing.T, r *RunResult, om []byte) map[string][]byte {
	t.Helper()
	var fj, tw, au, tl bytes.Buffer
	for _, err := range []error{
		forensics.WriteJSON(&fj, r.Forensics.Report("armed", r.Tracer.BlameTable())),
		WriteTwinCSV(&tw, r),
		trace.WriteAuditCSV(&au, r.Audit),
		WriteTimelineCSV(&tl, r),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return map[string][]byte{
		"armed_openmetrics.txt":     om,
		"armed_forensics.json":      fj.Bytes(),
		"armed_detector_series.csv": []byte(detectorSeries(r.Forensics.Det.Series())),
		"armed_twin.csv":            tw.Bytes(),
		"armed_audit.csv":           au.Bytes(),
		"armed_timeline.csv":        tl.Bytes(),
	}
}

// armedHashedOnly names the artifacts too large to commit as bytes; the
// golden holds their length and SHA-256 instead.
var armedHashedOnly = map[string]bool{"armed_openmetrics.txt": true}

// TestArmedGolden pins the armed cell's observer artifacts and checks
// that none of them is vacuous: the detector confirmed an episode, the
// audit trail holds decisions, the SLO monitor raised an alert, the
// scraper ran and the twin found an applicable window. It also holds the
// client ledger.
func TestArmedGolden(t *testing.T) {
	t.Parallel()
	cfg := armedCell()
	var om bytes.Buffer
	cfg.Telemetry.OpenMetrics = &om
	r := Run(cfg)
	checkClientLedger(t, r)

	if n := len(r.Forensics.Det.Episodes()); n < 1 {
		t.Fatalf("%d confirmed episodes: the cell no longer fluctuates", n)
	}
	if len(r.Audit) < 1 {
		t.Fatal("empty audit trail")
	}
	if len(r.SLO.Alerts()) < 1 {
		t.Fatal("no SLO alert transition")
	}
	if r.Scraper.Scrapes() < 2 {
		t.Fatalf("%d scrapes", r.Scraper.Scrapes())
	}
	if r.Twin.Applicable() < 1 {
		t.Fatal("no applicable twin sample")
	}
	if _, sampled, _, _ := r.Tracer.Stats(); sampled == 0 {
		t.Fatal("the tracer sampled no request")
	}

	gen := os.Getenv("GEN_ARMED_GOLDEN") != ""
	for name, got := range armedArtifacts(t, r, om.Bytes()) {
		file := "testdata/" + name
		if armedHashedOnly[name] {
			file += ".sha256"
			got = []byte(fmt.Sprintf("%d %x\n", len(got), sha256.Sum256(got)))
		}
		if gen {
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("armed cell diverged from the committed %s (got %d bytes, want %d)", file, len(got), len(want))
		}
	}
}

// TestArmedCostsWhatBareCosts pins the point of the client tap: arming
// all four observers adds under half an allocation per request to the
// bare cell (it added four when each layer wrapped the Submitter). The
// counts are MemStats.Mallocs around Run, the way bench/measure.go takes
// allocs_per_req; the test is not parallel, so nothing else in the
// package allocates meanwhile.
func TestArmedCostsWhatBareCosts(t *testing.T) {
	mallocs := func(cfg RunConfig) (perReq float64, goodput int) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := Run(cfg)
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(r.Goodput), r.Goodput
	}
	bareCfg := armedCell()
	bareCfg.Tracing, bareCfg.Telemetry, bareCfg.Forensics, bareCfg.Twin = nil, nil, nil, nil
	bare, n := mallocs(bareCfg)
	armed, m := mallocs(armedCell())
	if n != m || n < 50000 {
		t.Fatalf("bare served %d requests, armed %d: want the same count, at least 50 000", n, m)
	}
	t.Logf("%d requests: bare %.3f allocs/request, armed %.3f", n, bare, armed)
	if armed-bare > 0.5 {
		t.Fatalf("arming the observers costs %.3f allocations per request (bare %.3f, armed %.3f); budget 0.5", armed-bare, bare, armed)
	}
}

// checkClientLedger holds request conservation at the client: every
// request the population issued completed ok, failed, or was still out
// when the drain ended, and the ok count is the goodput.
func checkClientLedger(t *testing.T, r *RunResult) {
	t.Helper()
	l := r.Client
	if l.Issued == 0 || l.InFlight < 0 || l.Issued != l.OK+l.Failed+l.InFlight {
		t.Fatalf("client ledger %+v: issued must equal ok + failed + in flight", l)
	}
	if int(l.OK) != r.Goodput {
		t.Fatalf("client ledger counts %d ok, goodput is %d", l.OK, r.Goodput)
	}
}

// TestArmedRunKeepsNoPerRequestState pins results as sinks: once Run
// returns, the live heap it leaves behind grows with the run's length
// only by what the result keeps per second, not per request. Doubling
// the armed cell from 90 to 180 sim-s may add 1.5 MiB of retained heap;
// a sample per request and a buffered scrape timeline added 5.6 MiB. Not
// parallel: it reads the whole process's heap.
func TestArmedRunKeepsNoPerRequestState(t *testing.T) {
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties the pools' victim caches
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	retained := func(dur des.Time) (mib float64, r *RunResult) {
		cfg := armedCell()
		cfg.Duration = dur
		before := liveHeap()
		r = Run(cfg)
		after := liveHeap()
		runtime.KeepAlive(r)
		return (float64(after) - float64(before)) / (1 << 20), r
	}
	short, rs := retained(90 * des.Second)
	long, rl := retained(180 * des.Second)
	if rl.Client.Issued < rs.Client.Issued*3/2 {
		t.Fatalf("the long run issued %d requests, the short one %d: the doubling did not add load", rl.Client.Issued, rs.Client.Issued)
	}
	t.Logf("retained with the result: %.2f MiB after 90 sim-s (%d requests), %.2f MiB after 180 sim-s (%d)",
		short, rs.Client.Issued, long, rl.Client.Issued)
	if long-short >= 1.5 {
		t.Fatalf("doubling the armed run grew the heap retained with its result by %.2f MiB; budget 1.5", long-short)
	}
}
