package sct

import (
	"math"
	"testing"

	"conscale/internal/des"
	"conscale/internal/metrics"
	"conscale/internal/rng"
)

// synthSamples fabricates window tuples following the three-stage curve:
// TP rises linearly to plateau at qlower, holds to qupper, then declines.
// Concurrency visits sweep [1, qmax] with repeats and noise.
func synthSamples(qlower, qupper, qmax int, plateau float64, perBin int, seed uint64) []metrics.WindowSample {
	rnd := rng.New(seed)
	var out []metrics.WindowSample
	t := des.Time(0)
	for q := 1; q <= qmax; q++ {
		var tp float64
		switch {
		case q < qlower:
			tp = plateau * float64(q) / float64(qlower)
		case q <= qupper:
			tp = plateau
		default:
			tp = plateau * math.Max(0.15, 1-0.04*float64(q-qupper))
		}
		for i := 0; i < perBin; i++ {
			noisyTP := tp * (1 + 0.03*(rnd.Float64()-0.5))
			rt := float64(q) / noisyTP
			out = append(out, metrics.WindowSample{
				Start:       t,
				Concurrency: float64(q) + 0.3*(rnd.Float64()-0.5),
				Throughput:  noisyTP,
				RT:          rt,
				Completions: int(noisyTP/20) + 1,
			})
			t += 0.05
		}
	}
	return out
}

func TestEstimateRecoversRange(t *testing.T) {
	samples := synthSamples(10, 30, 60, 5000, 8, 1)
	est, ok := New(Config{}).Estimate(samples)
	if !ok {
		t.Fatal("estimate failed")
	}
	if est.Qlower < 8 || est.Qlower > 11 {
		t.Fatalf("Qlower = %d, want ~10", est.Qlower)
	}
	if est.Qupper < 28 || est.Qupper > 33 {
		t.Fatalf("Qupper = %d, want ~30", est.Qupper)
	}
	if math.Abs(est.PlateauTP-5000)/5000 > 0.05 {
		t.Fatalf("PlateauTP = %v, want ~5000", est.PlateauTP)
	}
	if est.Optimal() != est.Qlower {
		t.Fatalf("Optimal = %d, want Qlower %d", est.Optimal(), est.Qlower)
	}
}

func TestEstimateTracksShiftedCurve(t *testing.T) {
	// Same generator, different knee (the vertical-scaling scenario:
	// Qlower doubles with a second core).
	for _, knee := range []int{5, 10, 20} {
		samples := synthSamples(knee, knee*3, knee*6, 4000, 8, 2)
		est, ok := New(Config{}).Estimate(samples)
		if !ok {
			t.Fatalf("knee %d: estimate failed", knee)
		}
		if est.Qlower < knee-2 || est.Qlower > knee+2 {
			t.Fatalf("knee %d: Qlower = %d", knee, est.Qlower)
		}
	}
}

func TestEstimateRejectsTooFewSamples(t *testing.T) {
	samples := synthSamples(10, 30, 60, 5000, 8, 1)[:20]
	if _, ok := New(Config{}).Estimate(samples); ok {
		t.Fatal("estimate succeeded with too few samples")
	}
}

func TestEstimateRejectsLowDiversity(t *testing.T) {
	// Plenty of samples, but all at the same concurrency.
	var samples []metrics.WindowSample
	for i := 0; i < 200; i++ {
		samples = append(samples, metrics.WindowSample{
			Concurrency: 12, Throughput: 4000, RT: 0.003, Completions: 200,
		})
	}
	if _, ok := New(Config{}).Estimate(samples); ok {
		t.Fatal("estimate succeeded with one concurrency bin")
	}
}

func TestEstimateIgnoresIdleWindows(t *testing.T) {
	samples := synthSamples(10, 30, 60, 5000, 8, 3)
	idle := make([]metrics.WindowSample, 500)
	est1, ok1 := New(Config{}).Estimate(samples)
	est2, ok2 := New(Config{}).Estimate(append(idle, samples...))
	if !ok1 || !ok2 {
		t.Fatal("estimates failed")
	}
	if est1.Qlower != est2.Qlower || est1.Qupper != est2.Qupper {
		t.Fatalf("idle windows changed estimate: %+v vs %+v", est1, est2)
	}
}

func TestEstimateRangeOrdering(t *testing.T) {
	samples := synthSamples(15, 25, 80, 3000, 6, 7)
	est, ok := New(Config{}).Estimate(samples)
	if !ok {
		t.Fatal("estimate failed")
	}
	if est.Qlower > est.Qupper {
		t.Fatalf("Qlower %d > Qupper %d", est.Qlower, est.Qupper)
	}
	if est.Qlower < est.QminSeen || est.Qupper > est.QmaxSeen {
		t.Fatalf("range [%d,%d] outside observed [%d,%d]",
			est.Qlower, est.Qupper, est.QminSeen, est.QmaxSeen)
	}
	if est.Samples == 0 || est.Confidence <= 0 || est.Confidence > 1 {
		t.Fatalf("bad metadata: %+v", est)
	}
}

func TestOptimalNeverBelowOne(t *testing.T) {
	if (Estimate{Qlower: 0}).Optimal() != 1 {
		t.Fatal("Optimal should clamp to 1")
	}
	if (Estimate{Qlower: 7}).Optimal() != 7 {
		t.Fatal("Optimal should pass through Qlower")
	}
}

func TestRTAtQlowerPopulated(t *testing.T) {
	samples := synthSamples(10, 30, 60, 5000, 8, 4)
	est, ok := New(Config{}).Estimate(samples)
	if !ok {
		t.Fatal("estimate failed")
	}
	if est.RTAtQlower <= 0 {
		t.Fatalf("RTAtQlower = %v", est.RTAtQlower)
	}
	// At the plateau knee RT ≈ q/TP ≈ 10/5000 = 2ms.
	if est.RTAtQlower > 0.01 {
		t.Fatalf("RTAtQlower = %v, implausibly high", est.RTAtQlower)
	}
}

func TestScatterSplitsSeries(t *testing.T) {
	samples := synthSamples(10, 20, 40, 1000, 3, 5)
	tp, rt := Scatter(samples)
	if len(tp) != len(samples) || len(rt) != len(samples) {
		t.Fatalf("scatter sizes %d/%d, want %d", len(tp), len(rt), len(samples))
	}
	for i := range tp {
		if tp[i].Concurrency <= 0 || tp[i].Value <= 0 {
			t.Fatalf("bad scatter point %+v", tp[i])
		}
	}
}

func TestScatterSkipsIdle(t *testing.T) {
	samples := []metrics.WindowSample{
		{Concurrency: 0, Throughput: 0, Completions: 0},
		{Concurrency: 5, Throughput: 100, RT: 0.05, Completions: 5},
		{Concurrency: 3, Throughput: 60, RT: math.NaN(), Completions: 3},
	}
	tp, rt := Scatter(samples)
	if len(tp) != 2 {
		t.Fatalf("tp points = %d, want 2", len(tp))
	}
	if len(rt) != 1 {
		t.Fatalf("rt points = %d, want 1 (NaN RT skipped)", len(rt))
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	e := New(Config{})
	cfg := e.Config()
	def := DefaultConfig()
	if cfg != def {
		t.Fatalf("defaults not applied: %+v vs %+v", cfg, def)
	}
}

func TestCustomConfigRespected(t *testing.T) {
	e := New(Config{Tolerance: 0.10, MinTotalSamples: 5, MinDistinctBins: 2, MinSamplesPerBin: 1})
	samples := synthSamples(4, 8, 12, 500, 2, 9)
	if _, ok := e.Estimate(samples); !ok {
		t.Fatal("permissive config should estimate from small data")
	}
}
