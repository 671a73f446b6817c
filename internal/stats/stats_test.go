package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentileBasic(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	vals := []float64{10, 20}
	if got := Percentile(vals, 50); !almost(got, 15, 1e-9) {
		t.Fatalf("median of {10,20} = %v, want 15", got)
	}
	if got := Percentile(vals, 95); !almost(got, 19.5, 1e-9) {
		t.Fatalf("p95 of {10,20} = %v, want 19.5", got)
	}
}

func TestPercentileEmptyNaN(t *testing.T) {
	if got := Percentile(nil, 50); !math.IsNaN(got) {
		t.Fatalf("Percentile(nil) = %v, want NaN", got)
	}
}

func TestPercentileSingleton(t *testing.T) {
	for _, p := range []float64{0, 50, 99, 100} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("Percentile({7}, %v) = %v", p, got)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("input mutated: %v", vals)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p=101")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	vals := []float64{9, 1, 5, 3, 7, 2}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
		if a, b := Percentile(vals, p), PercentileSorted(sorted, p); !almost(a, b, 1e-12) {
			t.Fatalf("p=%v: Percentile=%v PercentileSorted=%v", p, a, b)
		}
	}
}

func TestMeanMinMax(t *testing.T) {
	vals := []float64{4, 2, 8, 6}
	if got := Mean(vals); !almost(got, 5, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Min(vals); got != 2 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(vals); got != 8 {
		t.Fatalf("Max = %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty aggregates should be NaN")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var o Online
	for _, v := range vals {
		o.Add(v)
	}
	if o.Count() != len(vals) {
		t.Fatalf("Count = %d", o.Count())
	}
	if !almost(o.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", o.Mean())
	}
	if !almost(o.Variance(), 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", o.Variance())
	}
	if !almost(o.StdDev(), 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", o.StdDev())
	}
}

func TestOnlineEmptyNaN(t *testing.T) {
	var o Online
	if !math.IsNaN(o.Mean()) || !math.IsNaN(o.Variance()) {
		t.Fatal("empty Online should report NaN")
	}
}

func TestOnlineMergeEquivalence(t *testing.T) {
	all := []float64{1, 5, 2, 8, 3, 9, 4, 7, 6}
	var whole Online
	for _, v := range all {
		whole.Add(v)
	}
	var a, b Online
	for i, v := range all {
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), whole.Count())
	}
	if !almost(a.Mean(), whole.Mean(), 1e-9) || !almost(a.Variance(), whole.Variance(), 1e-9) {
		t.Fatalf("merged mean/var = %v/%v, want %v/%v", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
}

func TestOnlineMergeEmptySides(t *testing.T) {
	var a, b Online
	b.Add(3)
	b.Add(5)
	a.Merge(b) // empty receiver
	if a.Count() != 2 || !almost(a.Mean(), 4, 1e-12) {
		t.Fatalf("merge into empty wrong: %v/%v", a.Count(), a.Mean())
	}
	var empty Online
	a.Merge(empty) // empty argument
	if a.Count() != 2 {
		t.Fatal("merging empty changed count")
	}
}

func TestBinSet(t *testing.T) {
	bs := NewBinSet()
	bs.Add(10, 100, 5)
	bs.Add(10, 120, 7)
	bs.Add(5, 60, 4)
	if bs.Len() != 2 {
		t.Fatalf("Len = %d", bs.Len())
	}
	bins := bs.Sorted()
	if bins[0].Key != 5 || bins[1].Key != 10 {
		t.Fatalf("Sorted keys wrong: %v, %v", bins[0].Key, bins[1].Key)
	}
	if !almost(bins[1].TP.Mean(), 110, 1e-12) {
		t.Fatalf("bin 10 TP mean = %v", bins[1].TP.Mean())
	}
	if !almost(bins[1].RT.Mean(), 6, 1e-12) {
		t.Fatalf("bin 10 RT mean = %v", bins[1].RT.Mean())
	}
}

// Property: percentile output is always within [min, max] of the input.
func TestQuickPercentileBounded(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p := float64(pRaw) / 255 * 100
		got := Percentile(vals, p)
		return got >= Min(vals)-1e-9 && got <= Max(vals)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(vals, a) <= Percentile(vals, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPercentile(b *testing.B) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64((i * 7919) % 10007)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Percentile(vals, 99)
	}
}
