package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling streams produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(17)
	const buckets, draws = 8, 80000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(9)
	const mean, n = 25.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if v := s.Exp(0); v != 0 {
			t.Fatalf("Exp(0) = %v, want 0", v)
		}
	}
}

func TestExpNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(-1) did not panic")
		}
	}()
	New(1).Exp(-1)
}

func TestPoissonSmallMean(t *testing.T) {
	s := New(13)
	const mean, n = 4.0, 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Poisson(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean)/mean > 0.03 {
		t.Fatalf("Poisson(%v) mean = %v", mean, got)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	s := New(13)
	const mean, n = 500.0, 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Poisson(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Poisson(%v) mean = %v", mean, got)
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	s := New(1)
	if s.Poisson(0) != 0 || s.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestNormMoments(t *testing.T) {
	s := New(21)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMean(t *testing.T) {
	s := New(23)
	const mean, n = 10.0, 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.LogNormal(mean, 0.5)
		if v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.03 {
		t.Fatalf("LogNormal mean = %v, want ~%v", got, mean)
	}
}

func TestLogNormalZeroMean(t *testing.T) {
	if v := New(1).LogNormal(0, 1); v != 0 {
		t.Fatalf("LogNormal(0, 1) = %v, want 0", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(29)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPickRespectsWeights(t *testing.T) {
	s := New(31)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestPickAllZeroWeightsUniform(t *testing.T) {
	s := New(37)
	weights := []float64{0, 0, 0, 0}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[s.Pick(weights)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("bucket %d has %d of 40000 under uniform fallback", i, c)
		}
	}
}

// Property: Intn always lands in range for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		size := int(n%1000) + 1
		v := New(seed).Intn(size)
		return v >= 0 && v < size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds replay identical streams of mixed draws.
func TestQuickReplay(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Float64() != b.Float64() || a.Exp(5) != b.Exp(5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Exp is never negative for any mean >= 0.
func TestQuickExpNonNegative(t *testing.T) {
	f := func(seed uint64, m uint16) bool {
		return New(seed).Exp(float64(m)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Exp(10)
	}
}

// TestLogNormalLnBitIdentical draws 10^5 values from twin streams, one
// through LogNormal and one through LogNormalLn with the logarithm taken
// by the caller, across means spanning the simulator's service demands
// and several sigmas: every pair is the same float64, bit for bit. A
// non-positive mean still returns 0 without drawing, so the streams stay
// in step across it.
func TestLogNormalLnBitIdentical(t *testing.T) {
	a, b := New(99), New(99)
	sigmas := []float64{0, 0.1, 0.3, 0.5, 1.2}
	for i := 0; i < 100000; i++ {
		mean := math.Exp(20*a.Float64() - 14) // ~1e-6 .. 4e2, log-uniform
		b.Float64()
		if i%1000 == 0 {
			mean = 1 // ln = 0: the compiled-phase cache's "absent" value
		}
		sigma := sigmas[i%len(sigmas)]
		if i%97 == 0 {
			for _, m := range []float64{0, -mean} {
				if v := a.LogNormal(m, sigma); v != 0 {
					t.Fatalf("LogNormal(%v) = %v, want 0", m, v)
				}
			}
		}
		want := a.LogNormal(mean, sigma)
		got := b.LogNormalLn(math.Log(mean), sigma)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d (mean %v, sigma %v): LogNormalLn = %x, LogNormal = %x", i, mean, sigma, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("the twin streams ended at different positions")
	}
}
