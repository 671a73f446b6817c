package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"conscale/internal/des"
)

func TestMeanCI(t *testing.T) {
	m, lo, hi := meanCI(nil)
	if !math.IsNaN(m) || !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatalf("empty: got %v %v %v", m, lo, hi)
	}
	m, lo, hi = meanCI([]float64{2.5})
	if m != 2.5 || lo != 2.5 || hi != 2.5 {
		t.Fatalf("singleton: got %v %v %v", m, lo, hi)
	}
	// n=4, sd=1 → half-width t(3)·1/2 = 1.591.
	m, lo, hi = meanCI([]float64{1, 2, 3, 4})
	if math.Abs(m-2.5) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	sd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	want := 3.182 * sd / 2
	if math.Abs((hi-m)-want) > 1e-9 || math.Abs((m-lo)-want) > 1e-9 {
		t.Fatalf("CI half-width = %v, want %v", hi-m, want)
	}
}

func TestHypothesisIDsAndUnknown(t *testing.T) {
	ids := HypothesisIDs()
	want := []string{"twin-steady", "drift-calm", "blame-conservation", "sct-dominance"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %q, want %q (full list %v)", i, ids[i], id, ids)
		}
	}
	if _, err := HypothesisStudy(HypothesisConfig{IDs: []string{"nope"}}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestVerdictFromMetrics(t *testing.T) {
	v, _ := verdictFromMetrics([]HypoMetric{{Name: "a", Pass: true}})
	if v != VerdictSupported {
		t.Fatalf("verdict = %q", v)
	}
	v, detail := verdictFromMetrics([]HypoMetric{{Name: "a", Pass: true}, {Name: "b", Mean: 1, Bound: 0.5, Op: "<=", Pass: false}})
	if v != VerdictRefuted || !strings.Contains(detail, "b = ") {
		t.Fatalf("verdict = %q detail = %q", v, detail)
	}
}

func TestGatedFailures(t *testing.T) {
	results := []HypothesisResult{
		{ID: "a", Gated: true, Verdict: VerdictSupported},
		{ID: "b", Gated: true, Verdict: VerdictRefuted, Detail: "boom"},
		{ID: "c", Gated: false, Verdict: VerdictRefuted},
	}
	fails := gatedFailures(results)
	if len(fails) != 1 || !strings.Contains(fails[0], "b:") {
		t.Fatalf("fails = %v", fails)
	}
}

// TestHypothesisSmoke is the reduced CI-smoke shape: the two gated
// hypotheses at one seed and a shortened steady window must come back
// SUPPORTED, render, and round-trip through the CSV writers.
func TestHypothesisSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run hypothesis sweep")
	}
	cfg := HypothesisConfig{
		IDs:      []string{"twin-steady", "drift-calm"},
		Seeds:    1,
		Duration: 180 * des.Second,
	}
	s, err := HypothesisStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := cfg.withDefaults().fold(s.Cells, s.Run(nil))
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	arts := hypothesisArtifacts(results)
	if len(arts) != len(results)+1 {
		t.Fatalf("%d artifacts for %d hypotheses, want one each plus the summary", len(arts), len(results))
	}
	for i, r := range results {
		if r.Verdict != VerdictSupported {
			t.Errorf("%s: %s — %s", r.ID, r.Verdict, r.Detail)
		}
		if len(r.Rows) == 0 || len(r.Metrics) == 0 {
			t.Errorf("%s: empty rows/metrics", r.ID)
		}
		var csv bytes.Buffer
		if err := arts[i].Write(&csv); err != nil {
			t.Fatal(err)
		}
		if arts[i].Name != "hypothesis_"+r.ID+".csv" {
			t.Errorf("%s: artifact named %q", r.ID, arts[i].Name)
		}
		if got := bytes.Count(csv.Bytes(), []byte("\n")); got != len(r.Rows)+1 {
			t.Errorf("%s: csv rows = %d, want %d", r.ID, got, len(r.Rows)+1)
		}
	}
	if fails := gatedFailures(results); len(fails) != 0 {
		t.Errorf("gated failures: %v", fails)
	}
	var buf bytes.Buffer
	if err := renderHypotheses(&buf, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"twin-steady", "drift-calm", "[CI-gated]", "rt_rel_err[users=2000]", "drift_flags[conscale]"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var sum bytes.Buffer
	if err := arts[len(results)].Write(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "twin-steady,true,SUPPORTED,") {
		t.Errorf("summary csv:\n%s", sum.String())
	}
}
