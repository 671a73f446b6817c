package telemetry

import (
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func buildTestRegistry() *Registry {
	reg := NewRegistry()
	c := reg.Counter("test_requests_total", "Requests handled.", "tier", "app")
	c.Add(41)
	c.Inc()
	g := reg.Gauge("test_queue_depth", "Accept queue depth.", "server", "app-0")
	g.Set(7)
	h := reg.Histogram("test_rt_seconds", "Response time.", "tier", "app")
	for _, v := range []float64{0.01, 0.02, 0.02, 0.3, 1.5} {
		h.Observe(v)
	}
	reg.GaugeFunc("test_capacity", "Provisioned capacity.", func() float64 { return 3 })
	reg.Collect("test_inflight", "Per-backend in-flight.", KindGauge, func(emit func(float64, ...string)) {
		emit(2, "backend", "app-0")
		emit(5, "backend", "app-1")
	})
	return reg
}

// TestWritePromRoundTrip renders the registry and parses it back, checking
// family metadata, sample values, and the histogram's cumulative invariants
// survive the trip.
func TestWritePromRoundTrip(t *testing.T) {
	reg := buildTestRegistry()
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	checkExposition(t, sb.String(), false)
}

// checkExposition parses a rendered exposition and verifies the invariants
// shared by the plain and timestamped forms.
func checkExposition(t *testing.T, text string, wantTS bool) {
	t.Helper()
	fams, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition failed to parse: %v\n%s", err, text)
	}
	byName := map[string]PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	ctr, ok := byName["test_requests_total"]
	if !ok || ctr.Type != "counter" || ctr.Help != "Requests handled." {
		t.Fatalf("counter family mangled: %+v", ctr)
	}
	if len(ctr.Samples) != 1 || ctr.Samples[0].Value != 42 || ctr.Samples[0].Labels != `{tier="app"}` {
		t.Fatalf("counter sample mangled: %+v", ctr.Samples)
	}

	if g := byName["test_queue_depth"]; g.Type != "gauge" || len(g.Samples) != 1 || g.Samples[0].Value != 7 {
		t.Fatalf("gauge family mangled: %+v", g)
	}
	if gf := byName["test_capacity"]; len(gf.Samples) != 1 || gf.Samples[0].Value != 3 {
		t.Fatalf("gauge-func family mangled: %+v", gf)
	}

	infl := byName["test_inflight"]
	if len(infl.Samples) != 2 {
		t.Fatalf("collector emitted %d samples, want 2", len(infl.Samples))
	}
	if infl.Samples[0].Labels != `{backend="app-0"}` || infl.Samples[1].Value != 5 {
		t.Fatalf("collector samples mangled: %+v", infl.Samples)
	}

	hist, ok := byName["test_rt_seconds"]
	if !ok || hist.Type != "histogram" {
		t.Fatalf("histogram family mangled: %+v", hist)
	}
	var (
		bucketVals []float64
		les        []float64
		sum, count float64
		haveInf    bool
	)
	for _, s := range hist.Samples {
		switch s.Name {
		case "test_rt_seconds_bucket":
			bucketVals = append(bucketVals, s.Value)
			le := leOf(t, s.Labels)
			if le == "+Inf" {
				haveInf = true
				les = append(les, math.Inf(1))
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("unparsable le %q", le)
				}
				les = append(les, f)
			}
		case "test_rt_seconds_sum":
			sum = s.Value
		case "test_rt_seconds_count":
			count = s.Value
		}
	}
	if !haveInf {
		t.Fatal("histogram missing the +Inf bucket")
	}
	if count != 5 {
		t.Fatalf("histogram count = %v, want 5", count)
	}
	if wantSum := 0.01 + 0.02 + 0.02 + 0.3 + 1.5; sum < wantSum-1e-9 || sum > wantSum+1e-9 {
		t.Fatalf("histogram sum = %v, want %v", sum, wantSum)
	}
	if !sort.Float64sAreSorted(les) {
		t.Fatalf("le bounds not ascending: %v", les)
	}
	if !sort.Float64sAreSorted(bucketVals) {
		t.Fatalf("cumulative bucket counts not monotone: %v", bucketVals)
	}
	if bucketVals[len(bucketVals)-1] != count {
		t.Fatalf("+Inf bucket %v != count %v", bucketVals[len(bucketVals)-1], count)
	}

	for _, f := range fams {
		for _, s := range f.Samples {
			if s.HasTS != wantTS {
				t.Fatalf("sample %s%s: HasTS=%v, want %v", s.Name, s.Labels, s.HasTS, wantTS)
			}
		}
	}
}

func leOf(t *testing.T, labels string) string {
	t.Helper()
	const marker = `le="`
	i := strings.Index(labels, marker)
	if i < 0 {
		t.Fatalf("bucket sample without le label: %s", labels)
	}
	rest := labels[i+len(marker):]
	return rest[:strings.IndexByte(rest, '"')]
}

// TestHandlerServesProm exercises the live-mode face over real HTTP.
func TestHandlerServesProm(t *testing.T) {
	reg := buildTestRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q, want text format 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkExposition(t, string(body), false)
}

func TestParserRejectsMalformed(t *testing.T) {
	bad := []string{
		"metric{le=\"0.1\" 3\n",         // unterminated label set... actually missing }
		"9metric 3\n",                   // bad name
		"metric three\n",                // bad value
		"metric 3 4 5\n",                // trailing garbage
		"metric{le=unquoted} 3\n",       // unquoted label value
		"# TYPE metric exponentiator\n", // unknown type
	}
	for _, in := range bad {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("ParseProm accepted malformed input %q", in)
		}
	}
}
