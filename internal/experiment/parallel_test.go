package experiment

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/workload"
)

// withWorkers runs fn under a fixed harness fan-out, restoring the
// previous setting afterwards.
func withWorkers(n int, fn func()) {
	prev := SetMaxWorkers(n)
	defer SetMaxWorkers(prev)
	fn()
}

func TestSetMaxWorkersClampsAndRestores(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 3 {
		t.Fatalf("MaxWorkers = %d, want 3", MaxWorkers())
	}
	if got := SetMaxWorkers(0); got != 3 {
		t.Fatalf("SetMaxWorkers returned %d, want previous 3", got)
	}
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers = %d after clamp, want 1", MaxWorkers())
	}
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		withWorkers(workers, func() {
			const n = 100
			var hits [n]atomic.Int32
			ParallelFor(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
				}
			}
		})
	}
}

func TestParallelForBoundsConcurrency(t *testing.T) {
	withWorkers(3, func() {
		var cur, peak atomic.Int32
		var mu sync.Mutex
		ParallelFor(64, func(int) {
			c := cur.Add(1)
			mu.Lock()
			if c > peak.Load() {
				peak.Store(c)
			}
			mu.Unlock()
			cur.Add(-1)
		})
		if p := peak.Load(); p > 3 {
			t.Fatalf("observed %d concurrent iterations, cap is 3", p)
		}
	})
}

// The headline determinism property: the fan-out harness must render the
// Table 1 rows byte-identically to the strictly sequential path at the
// same seed. (Each run owns its engine and PRNG; results merge by index.)
func TestParallelMatchesSequentialTable1(t *testing.T) {
	render := func() []byte {
		s := shrink(Table1Study(11), 90*des.Second, 2500)
		var buf bytes.Buffer
		renderTable1(&buf, table1Rows(s.Cells, s.Run(nil)))
		return buf.Bytes()
	}
	var seq, par []byte
	withWorkers(1, func() { seq = render() })
	withWorkers(4, func() { par = render() })
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel Table 1 diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

// Same property for the chaos robustness table: identical schedules,
// identical rows, byte-identical rendering at any worker count.
func TestParallelMatchesSequentialChaosTable(t *testing.T) {
	render := func() []byte {
		s := only(chaosStudy(7, 120*des.Second), "interference")
		var buf bytes.Buffer
		renderChaosTable(&buf, chaosRows(s.Cells, s.Run(nil)))
		return buf.Bytes()
	}
	var seq, par []byte
	withWorkers(1, func() { seq = render() })
	withWorkers(4, func() { par = render() })
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel chaos table diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

// And for the profiling sweeps (per-level fan-out inside Sweep).
func TestParallelMatchesSequentialSweep(t *testing.T) {
	cfg := DefaultSweepConfig(TargetDB)
	cfg.Levels = []int{5, 10, 20, 40}
	cfg.Measure = 3 * des.Second
	render := func() []byte {
		var buf bytes.Buffer
		if err := writeSweepCSV(&buf, Sweep(cfg)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var seq, par []byte
	withWorkers(1, func() { seq = render() })
	withWorkers(4, func() { par = render() })
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel sweep diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

// RunMany must preserve input order regardless of completion order.
func TestRunManyPreservesOrder(t *testing.T) {
	traces := []string{workload.BigSpike, workload.SlowlyVarying, workload.DualPhase}
	cfgs := make([]RunConfig, len(traces))
	for i, tr := range traces {
		cfg := shortRun(scaling.EC2, tr, 3)
		cfg.Duration = 60 * des.Second
		cfgs[i] = cfg
	}
	withWorkers(4, func() {
		results := RunMany(cfgs)
		if len(results) != len(traces) {
			t.Fatalf("results = %d, want %d", len(results), len(traces))
		}
		for i, res := range results {
			if res.Trace != traces[i] {
				t.Fatalf("result %d is trace %q, want %q", i, res.Trace, traces[i])
			}
		}
	})
}
