package sla

import (
	"math"
	"slices"
	"sort"
	"testing"

	"conscale/internal/des"
	"conscale/internal/rng"
)

// sortedPercentile is the definition Percentile must keep meeting: sort
// a copy of the window and interpolate between the two order statistics
// around rank p/100·(n−1). It is the code Percentile ran before it
// selected.
func sortedPercentile(live []float64, p float64) float64 {
	if len(live) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), live...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// windowShapes are the value patterns the oracle test draws windows
// from: the random one the detector sees, and the ones that break a
// careless partition.
var windowShapes = []struct {
	name string
	fill func(r *rng.Source, v []float64)
}{
	{"lognormal", func(r *rng.Source, v []float64) {
		for i := range v {
			v[i] = r.LogNormal(0.05, 0.8)
		}
	}},
	{"sorted", func(r *rng.Source, v []float64) {
		for i := range v {
			v[i] = float64(i) * 0.001
		}
	}},
	{"reversed", func(r *rng.Source, v []float64) {
		for i := range v {
			v[i] = float64(len(v)-i) * 0.001
		}
	}},
	{"all-equal", func(r *rng.Source, v []float64) {
		for i := range v {
			v[i] = 0.25
		}
	}},
	{"heavy-duplicates", func(r *rng.Source, v []float64) {
		for i := range v {
			v[i] = float64(r.Intn(4)) * 0.1
		}
	}},
	{"organ-pipe", func(r *rng.Source, v []float64) {
		for i := range v {
			v[i] = float64(min(i, len(v)-1-i))
		}
	}},
	{"step", func(r *rng.Source, v []float64) {
		for i := range v {
			v[i] = 0.01 + r.Float64()*1e-6
			if i > len(v)*98/100 {
				v[i] += 3
			}
		}
	}},
}

// TestWindowTailPercentileMatchesSort is the select-versus-sort oracle:
// over ≥ 10⁴ seeded windows of every shape and of sizes 1, 2, 3 and up,
// Percentile returns the bit pattern the sort-based definition returns,
// and leaves the window's samples in arrival order.
func TestWindowTailPercentileMatchesSort(t *testing.T) {
	r := rng.New(42)
	ps := []float64{0, 50, 95, 99, 100}
	cases := 0
	for round := 0; round < 300; round++ {
		for _, shape := range windowShapes {
			n := 1 + round%3
			if round >= 30 {
				n = 1 + r.Intn(2000)
			}
			vals := make([]float64, n)
			shape.fill(r, vals)
			w := NewWindowTail(10 * des.Second)
			for i, v := range vals {
				w.Add(des.Time(i)*des.Millisecond/1000, v)
			}
			now := des.Time(n) * des.Millisecond / 1000
			for _, p := range ps {
				got, want := w.Percentile(now, p), sortedPercentile(vals, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d p%v: got %v (%#x), sort gives %v (%#x)", shape.name, n, p,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
				cases++
			}
			for i, v := range vals {
				if w.values[w.head+i] != v {
					t.Fatalf("%s n=%d: Percentile reordered the window at %d", shape.name, n, i)
				}
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestSelectKthEveryRank checks the kernel alone at every k of small
// inputs, including the partial-order postcondition Percentile relies on
// for the upper neighbour.
func TestSelectKthEveryRank(t *testing.T) {
	r := rng.New(7)
	for _, shape := range windowShapes {
		for n := 1; n <= 40; n++ {
			base := make([]float64, n)
			shape.fill(r, base)
			sorted := append([]float64(nil), base...)
			sort.Float64s(sorted)
			for k := 0; k < n; k++ {
				v := append([]float64(nil), base...)
				selectKth(v, k)
				if v[k] != sorted[k] {
					t.Fatalf("%s n=%d k=%d: v[k]=%v, want %v", shape.name, n, k, v[k], sorted[k])
				}
				for _, x := range v[:k] {
					if x > v[k] {
						t.Fatalf("%s n=%d k=%d: %v left of the pivot", shape.name, n, k, x)
					}
				}
				for _, x := range v[k+1:] {
					if x < v[k] {
						t.Fatalf("%s n=%d k=%d: %v right of the pivot", shape.name, n, k, x)
					}
				}
			}
		}
	}
}

// TestSelectFallbackSorts exhausts the partition budget on purpose — one
// round, then none — so the sort fallback that bounds the worst case
// runs on ranges large enough to matter, and checks it leaves the same
// answer and the same partial order.
func TestSelectFallbackSorts(t *testing.T) {
	r := rng.New(9)
	for _, shape := range windowShapes {
		for _, budget := range []int{0, 1, 2} {
			base := make([]float64, 1500)
			shape.fill(r, base)
			sorted := append([]float64(nil), base...)
			sort.Float64s(sorted)
			for _, k := range []int{0, 1, 750, 1485, 1498, 1499} {
				v := append([]float64(nil), base...)
				selectWithin(v, k, budget)
				if v[k] != sorted[k] {
					t.Fatalf("%s budget=%d k=%d: got %v, want %v", shape.name, budget, k, v[k], sorted[k])
				}
				if k+1 < len(v) && slices.Min(v[k+1:]) != sorted[k+1] {
					t.Fatalf("%s budget=%d k=%d: upper neighbour %v, want %v", shape.name, budget, k, slices.Min(v[k+1:]), sorted[k+1])
				}
			}
		}
	}
}

// TestWindowTailSteadyStateAllocs pins the two allocation budgets: a
// warm tracker answers Percentile without allocating, and Add stays at
// amortised zero across the in-place compactions of a sliding window.
func TestWindowTailSteadyStateAllocs(t *testing.T) {
	w := NewWindowTail(des.Second)
	now := des.Time(0)
	const step = des.Second / 4096
	add := func() {
		now += step
		w.Add(now, float64(now))
	}
	// Warm up: fill the window, slide it through several compactions so
	// the arrays reach their steady capacity, and size the scratch copy.
	for i := 0; i < 10*4096; i++ {
		add()
	}
	w.Percentile(now, 99)
	if got := testing.AllocsPerRun(100, func() { w.Percentile(now, 99) }); got != 0 {
		t.Fatalf("Percentile on a warm tracker allocates %v times per call", got)
	}
	// 20 000 Adds per run at 4 096 per window: each run crosses several
	// compactions.
	if got := testing.AllocsPerRun(5, func() {
		for i := 0; i < 20000; i++ {
			add()
		}
	}); got != 0 {
		t.Fatalf("20000 Adds across compactions allocate %v times", got)
	}
	if w.Count() < 4000 || w.Count() > 4200 {
		t.Fatalf("window holds %d samples, want ≈ 4096", w.Count())
	}
}

// BenchmarkWindowTailPercentile reads p99 off a window the size the
// paper cell's detector holds (≈ 13 k samples in 10 s), one new sample
// between reads.
func BenchmarkWindowTailPercentile(b *testing.B) {
	w := NewWindowTail(10 * des.Second)
	r := rng.New(1)
	now := des.Time(0)
	const step = 10 * des.Second / 13000
	for i := 0; i < 26000; i++ {
		now += step
		w.Add(now, r.LogNormal(0.05, 0.8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		now += step
		w.Add(now, r.LogNormal(0.05, 0.8))
		sink += w.Percentile(now, 99)
	}
	_ = sink
}
