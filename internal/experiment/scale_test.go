package experiment

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"conscale/internal/admission"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/workload"
)

// smallScaleConfig is a fast sweep point for tests: 4 cells, 3000
// clients, 40 simulated seconds.
func smallScaleConfig(mode scaling.Mode, parallel bool) ScaleConfig {
	cfg := DefaultScaleConfig(mode, 3000)
	cfg.Cells = 4
	cfg.Duration = 40 * des.Second
	cfg.WarmupSkip = 10 * des.Second
	if !parallel {
		cfg.Workers = 1
	}
	return cfg
}

func TestRunScaleSmoke(t *testing.T) {
	res := RunScale(smallScaleConfig(scaling.ConScale, false))
	if res.Requests == 0 || res.Goodput == 0 {
		t.Fatalf("no traffic: requests=%d goodput=%d", res.Requests, res.Goodput)
	}
	if res.ErrorRate > 0.05 {
		t.Fatalf("error rate %.3f too high for an underloaded fleet", res.ErrorRate)
	}
	if res.P99 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible tails: p50=%.4fs p99=%.4fs", res.P50, res.P99)
	}
	// Every request crosses the network edge twice; the floor on any RT
	// is 2×EdgeDelay = 40 ms.
	if res.P50 < 0.040 {
		t.Fatalf("p50=%.4fs below the 2×edge-delay floor", res.P50)
	}
	if res.Events == 0 || res.WallSec <= 0 || res.EventsPerSec <= 0 {
		t.Fatalf("missing execution metrics: events=%d wall=%.3f rate=%.0f", res.Events, res.WallSec, res.EventsPerSec)
	}
	if res.VMs < 3*res.Cells {
		t.Fatalf("fleet has %d VMs, want at least 3 per cell", res.VMs)
	}
	if res.PeakHeapBytes == 0 {
		t.Fatal("peak heap was not sampled")
	}
	if len(res.Timeline) < 35 {
		t.Fatalf("timeline has %d points, want ~40", len(res.Timeline))
	}
}

// TestScaleStripedMatchesSequential is the scale mode's core regression:
// the same configuration run with sequential window execution and with
// the parallel worker pool must produce byte-identical timeline CSVs and
// identical scalar results. Worker count is forced above 1 so the
// parallel path actually fans out even on single-CPU CI machines.
func TestScaleStripedMatchesSequential(t *testing.T) {
	render := func(workers int) (string, *ScaleResult) {
		cfg := smallScaleConfig(scaling.ConScale, workers > 1)
		cfg.Workers = workers
		res := RunScale(cfg)
		var buf bytes.Buffer
		WriteScaleTimelineCSV(&buf, res)
		return buf.String(), res
	}
	seqCSV, seq := render(1)
	// 4 pooled workers over 5 shards, plus an over-provisioned count that
	// must clamp to the shard count — both forced above 1 so the pool
	// actually fans out even on single-CPU CI machines.
	for _, workers := range []int{4, 7} {
		parCSV, par := render(workers)
		if seqCSV != parCSV {
			t.Fatalf("workers=%d: timeline CSV diverges between sequential and striped-parallel execution:\nseq:\n%s\npar:\n%s",
				workers, seqCSV, parCSV)
		}
		if seq.Events != par.Events {
			t.Fatalf("workers=%d: event counts diverge: seq=%d par=%d", workers, seq.Events, par.Events)
		}
		if seq.P99 != par.P99 || seq.Goodput != par.Goodput || seq.Requests != par.Requests {
			t.Fatalf("workers=%d: results diverge: seq p99=%v goodput=%d, par p99=%v goodput=%d",
				workers, seq.P99, seq.Goodput, par.P99, par.Goodput)
		}
		if seq.VMs != par.VMs || seq.ScaleActions != par.ScaleActions {
			t.Fatalf("workers=%d: controller state diverges: seq vms=%d actions=%d, par vms=%d actions=%d",
				workers, seq.VMs, seq.ScaleActions, par.VMs, par.ScaleActions)
		}
		if par.Workers < 2 {
			t.Fatalf("workers=%d: run reports pool size %d, want >1", workers, par.Workers)
		}
	}
}

// TestScaleDeterministicAcrossRuns pins run-to-run determinism (same
// seed, same trajectory) — the property every other regression test
// builds on.
func TestScaleDeterministicAcrossRuns(t *testing.T) {
	a := RunScale(smallScaleConfig(scaling.EC2, false))
	b := RunScale(smallScaleConfig(scaling.EC2, false))
	if a.Events != b.Events || a.P99 != b.P99 || a.Goodput != b.Goodput {
		t.Fatalf("same-seed runs diverge: events %d vs %d, p99 %v vs %v", a.Events, b.Events, a.P99, b.P99)
	}
}

func TestScaleTelemetryHooks(t *testing.T) {
	cfg := smallScaleConfig(scaling.EC2, false)
	cfg.Telemetry = true
	res := RunScale(cfg)
	if res.Registry == nil {
		t.Fatal("telemetry registry missing")
	}
	var text bytes.Buffer
	if err := res.Registry.WriteProm(&text); err != nil {
		t.Fatalf("exposition failed: %v", err)
	}
	for _, want := range []string{"conscale_scale_arrivals_total", "conscale_client_rt_seconds"} {
		if !bytes.Contains(text.Bytes(), []byte(want)) {
			t.Fatalf("exposition lacks %s:\n%s", want, text.String())
		}
	}
	// The front-door tap saw the whole streaming population: every issue,
	// every outcome, and a histogram sample per success. Registration is
	// idempotent, so asking again returns the run's instruments.
	arrivals := res.Registry.Counter("conscale_scale_arrivals_total", "").Value()
	if arrivals == 0 || int64(arrivals) != res.Requests {
		t.Fatalf("arrivals counter = %d, the population issued %d", arrivals, res.Requests)
	}
	resolved := res.Stream.OK + res.Stream.Errors
	if got := res.Registry.Gauge("conscale_scale_inflight", "").Value(); got != float64(res.Requests-resolved) {
		t.Fatalf("in-flight gauge = %v at the end, want issued − resolved = %d", got, res.Requests-resolved)
	}
	if got := res.Registry.Histogram("conscale_client_rt_seconds", "").Count(); got == 0 || int64(got) != res.Goodput {
		t.Fatalf("client RT histogram holds %d samples, the run had %d successes", got, res.Goodput)
	}
}

func TestScaleRowAndReport(t *testing.T) {
	res := RunScale(smallScaleConfig(scaling.DCM, false))
	row := res.Row()
	if row.Mode != "dcm" || row.Clients != 3000 || row.P99Ms <= 0 {
		t.Fatalf("bad row: %+v", row)
	}
	var buf bytes.Buffer
	if err := WriteScaleReport(&buf, []ScaleRow{row}); err != nil {
		t.Fatalf("report write failed: %v", err)
	}
	for _, want := range []string{`"schema": "conscale-bench/7"`, `"mode": "dcm"`, `"workers": 1`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("report lacks %s:\n%s", want, buf.String())
		}
	}
}

// The scale-edge golden pins the client↔cell edge of scale mode, which
// TestScaleStripedMatchesSequential only compares with itself: arrivals
// picked between two think-time classes, each request crossing the
// striper to a round-robin cell and its outcome — served or shed —
// crossing back. It was written by the commit before the edge's closures
// were replaced, so it compares each later commit with that one.
// Regenerate (only if the simulator's trajectory legitimately changes)
// with:
//
//	GEN_SCALE_GOLDEN=1 go test ./internal/experiment -run TestScaleEdgeGolden

// scaleEdgeCell is an overloaded three-cell fleet: paper-sized cells
// behind a priority shedder, under a spike of two client classes.
func scaleEdgeCell(workers int) ScaleConfig {
	acfg, err := admission.Parse("priority:cap=300,browse=75")
	if err != nil {
		panic(err) // a constant spec
	}
	cell := cluster.DefaultConfig()
	return ScaleConfig{
		Mode:       scaling.ConScale,
		Admission:  map[cluster.Tier]admission.Config{cluster.Web: acfg, cluster.App: acfg},
		CellConfig: &cell,
		Clients:    16000,
		Cells:      3,
		Duration:   40 * des.Second,
		Seed:       17,
		TraceName:  workload.BigSpike,
		Classes: []workload.Class{
			{Name: "readers", Weight: 3, ThinkTime: 3},
			{Name: "authors", Weight: 1, ThinkTime: 9},
		},
		WarmupSkip: 5 * des.Second,
		Workers:    workers,
	}
}

// TestScaleMergesCellAdmission pins that RunScale lays ScaleConfig's
// admission entries over CellConfig's own, as Run does with
// RunConfig.Admission: a one-slot web queue cap set on the cell survives
// an always-admit DB entry on the run, and sheds.
func TestScaleMergesCellAdmission(t *testing.T) {
	parse := func(spec string) admission.Config {
		acfg, err := admission.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return acfg
	}
	cfg := scaleEdgeCell(1)
	cfg.Duration = 20 * des.Second
	cfg.CellConfig.Admission = map[cluster.Tier]admission.Config{cluster.Web: parse("queue-cap:cap=1")}
	cfg.Admission = map[cluster.Tier]admission.Config{cluster.DB: parse("always")}
	if res := RunScale(cfg); res.Sheds == 0 {
		t.Fatal("the cell's web queue cap shed nothing: RunScale dropped CellConfig.Admission")
	}
}

// scaleLedger renders what the timeline CSV rounds away.
func scaleLedger(r *ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "issued=%d ok=%d errors=%d sheds=%d sheds_by_class=%v\n",
		r.Stream.Issued, r.Stream.OK, r.Stream.Errors, r.Sheds, r.ShedsByClass)
	for _, c := range r.Stream.Classes {
		fmt.Fprintf(&b, "class %s issued=%d\n", c.Name, c.Issued)
	}
	fmt.Fprintf(&b, "p50=%.9f p95=%.9f p99=%.9f mean_rt=%.9f max_rt=%.9f tail_ok=%d\n",
		r.P50, r.P95, r.P99, r.MeanRT, r.Stream.MaxRT, r.Stream.TailOK)
	fmt.Fprintf(&b, "events=%d actions=%d vms=%d\n", r.Events, r.ScaleActions, r.VMs)
	return b.String()
}

func TestScaleEdgeGolden(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := RunScale(scaleEdgeCell(workers))
		if r.Workers != workers {
			t.Fatalf("asked for %d workers, the run used %d", workers, r.Workers)
		}
		// Not vacuous: the shed path crossed the edge back, arrivals were
		// picked between the classes, and the edge is the striper's.
		if r.Sheds == 0 || r.Stream.Errors == 0 {
			t.Fatalf("workers=%d: %d sheds, %d failed requests: the cell no longer overloads", workers, r.Sheds, r.Stream.Errors)
		}
		for _, c := range r.Stream.Classes {
			if c.Issued == 0 {
				t.Fatalf("workers=%d: class %s issued nothing", workers, c.Name)
			}
		}
		// Every request crosses the striper twice.
		if want := uint64(2 * r.Requests); r.Stripe.Delivered != want {
			t.Fatalf("workers=%d: %d cross-shard deliveries for %d requests, want %d", workers, r.Stripe.Delivered, r.Requests, want)
		}
		var tl bytes.Buffer
		WriteScaleTimelineCSV(&tl, r)
		for file, got := range map[string]string{
			"testdata/scale_edge_timeline.csv": tl.String(),
			"testdata/scale_edge_ledger.txt":   scaleLedger(r),
		} {
			if os.Getenv("GEN_SCALE_GOLDEN") != "" && workers == 1 {
				if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("workers=%d: the scale-edge cell diverged from the committed %s", workers, file)
			}
		}
	}
}

// stubDoor is a front door over two cells that answer at once, on a
// striper of their own.
func stubDoor() (*des.Striper, *frontDoor) {
	const edge = 20 * des.Millisecond
	str := des.NewStriper(3, edge)
	answer := func(done func(ok bool)) { done(true) }
	return str, &frontDoor{str: str, edge: edge, cells: []workload.Submitter{answer, answer}}
}

// TestFrontDoorRoundTripAllocBudget pins the edge's share of a scale-mode
// request: submit, the crossing to a cell, the cell's answer, the crossing
// back and the landing allocate nothing once the hop records and the
// striper's storage are warm.
func TestFrontDoorRoundTripAllocBudget(t *testing.T) {
	str, door := stubDoor()
	landed := 0
	done := func(ok bool) {
		if ok {
			landed++
		}
	}
	trip := func() {
		for i := 0; i < 8; i++ { // several out at once, over both cells
			door.submit(done)
		}
		str.RunUntil(str.Now() + 3*door.edge)
	}
	for i := 0; i < 16; i++ {
		trip()
	}
	warm := landed
	if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
		t.Fatalf("eight front-door round trips allocate %.1f objects, want 0", allocs)
	}
	if got := landed - warm; got != 201*8 {
		t.Fatalf("%d requests landed over the measured trips, want %d", got, 201*8)
	}
	if len(door.idle) != 8 {
		t.Fatalf("%d hops idle after the trips, want the 8 that were out at once", len(door.idle))
	}
}

// TestHopLandsOnce: a cell that answers one request twice must crash the
// run — the second landing would complete whichever request holds the
// recycled hop next.
func TestHopLandsOnce(t *testing.T) {
	str, door := stubDoor()
	door.cells[0] = func(done func(ok bool)) {
		done(true)
		done(false)
	}
	door.submit(func(bool) {})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "completed twice") {
			t.Fatalf("panic %q, want one naming the double completion", msg)
		}
	}()
	str.RunUntil(3 * door.edge)
}
