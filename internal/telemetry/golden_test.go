package telemetry

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"conscale/internal/des"
)

// The exposition goldens pin the bytes of both text forms — WriteProm and
// the scraper's timestamped timeline — over every shape the renderer
// handles. They were written by the commit before the renderer stopped
// building a string per value, so they compare each later commit with
// that one. Regenerate (only if the format legitimately changes) with:
//
//	GEN_EXPOSITION_GOLDEN=1 go test ./internal/telemetry -run TestExpositionGolden

// goldenRegistry covers unlabelled and labelled counters, gauges and
// funcs, an unlabelled and a labelled histogram (underflow, interior and
// overflow buckets), a collector family with multi-key labels given out
// of order, non-finite values, and a label value that needs escaping.
// step advances every instrument so a second scrape differs from the
// first.
func goldenRegistry() (reg *Registry, step func()) {
	reg = NewRegistry()
	plain := reg.Counter("golden_plain_total", "An unlabelled counter.")
	app := reg.Counter("golden_requests_total", "Requests by tier.", "tier", "app")
	db := reg.Counter("golden_requests_total", "Requests by tier.", "tier", "db")
	depth := reg.Gauge("golden_depth", "An unlabelled gauge.")
	perVM := reg.Gauge("golden_vm_load", "Load by server and zone.", "zone", "b", "server", "tomcat1")
	odd := reg.Gauge("golden_odd_label", "A label value that needs escaping.", "path", "a\\b \"quoted\"\nnext")
	nan := reg.Gauge("golden_nonfinite", "Non-finite values.", "which", "nan")
	pinf := reg.Gauge("golden_nonfinite", "Non-finite values.", "which", "pinf")
	ninf := reg.Gauge("golden_nonfinite", "Non-finite values.", "which", "ninf")
	rt := reg.Histogram("golden_rt_seconds", "An unlabelled histogram.")
	tierRT := reg.Histogram("golden_tier_rt_seconds", "A labelled histogram.", "tier", "app")
	empty := reg.Histogram("golden_empty_seconds", "A histogram nobody observed.", "tier", "db")
	_ = empty
	ticks := 0.0
	reg.GaugeFunc("golden_capacity", "An unlabelled gauge func.", func() float64 { return 3 + ticks/8 })
	reg.GaugeFunc("golden_capacity_by_tier", "A labelled gauge func.", func() float64 { return 1e21 * (1 + ticks) }, "tier", "web")
	reg.CounterFunc("golden_lifetime_total", "A labelled counter func.", func() float64 { return 123456789 + ticks }, "source", "pool")
	reg.Collect("golden_inflight", "Per-backend in-flight, two label keys.", KindGauge, func(emit func(float64, ...string)) {
		emit(2+ticks, "lb", "web", "backend", "tomcat1")
		emit(0.1+0.2, "lb", "web", "backend", "tomcat2")
		emit(-ticks)
	})
	step = func() {
		ticks++
		plain.Inc()
		app.Add(41)
		db.Add(1 << 40)
		depth.Set(7.25 * ticks)
		perVM.Set(-0.000123 * ticks)
		odd.Set(1 / (3 * ticks))
		nan.Set(math.NaN())
		pinf.Set(math.Inf(1))
		ninf.Set(math.Inf(-1))
		for _, v := range []float64{1e-7, 0.0101, 0.0102, 0.02, 0.3, 1.5, 5000} {
			rt.Observe(v * ticks)
			tierRT.Observe(v / ticks)
		}
	}
	return reg, step
}

func checkGoldenFile(t *testing.T, file string, got []byte) {
	t.Helper()
	if os.Getenv("GEN_EXPOSITION_GOLDEN") != "" {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition diverged from the committed %s:\n%s", file, got)
	}
}

// checkGoldenParse round-trips a golden exposition through ParseProm and
// checks the shapes that are easy to lose: the escaped label value, the
// non-finite values, sorted multi-key labels and both histograms' +Inf
// bucket.
func checkGoldenParse(t *testing.T, text []byte, wantTS bool) {
	t.Helper()
	fams, err := ParseProm(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("golden exposition failed to parse: %v", err)
	}
	byName := map[string]PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
		for _, s := range f.Samples {
			if s.HasTS != wantTS {
				t.Fatalf("sample %s%s: HasTS=%v, want %v", s.Name, s.Labels, s.HasTS, wantTS)
			}
		}
	}
	if len(fams) != 13 {
		t.Fatalf("parsed %d families, want 13", len(fams))
	}
	if s := byName["golden_odd_label"].Samples; len(s) == 0 || s[0].Labels != `{path="a\\b \"quoted\"\nnext"}` {
		t.Fatalf("escaped label mangled: %+v", s)
	}
	nf := byName["golden_nonfinite"].Samples
	if len(nf) < 3 || !math.IsNaN(nf[0].Value) || !math.IsInf(nf[1].Value, 1) || !math.IsInf(nf[2].Value, -1) {
		t.Fatalf("non-finite values mangled: %+v", nf)
	}
	if s := byName["golden_inflight"].Samples; len(s) < 3 || s[0].Labels != `{backend="tomcat1",lb="web"}` || s[2].Labels != "" {
		t.Fatalf("collector samples mangled: %+v", s)
	}
	for _, name := range []string{"golden_rt_seconds", "golden_tier_rt_seconds", "golden_empty_seconds"} {
		f := byName[name]
		if f.Type != "histogram" {
			t.Fatalf("%s: type %q", name, f.Type)
		}
		var inf, count float64 = -1, -2
		for _, s := range f.Samples {
			switch {
			case s.Name == name+"_bucket" && strings.Contains(s.Labels, `le="+Inf"`):
				inf = s.Value
			case s.Name == name+"_count":
				count = s.Value
			}
		}
		if inf != count {
			t.Fatalf("%s: +Inf bucket %v != count %v", name, inf, count)
		}
	}
}

// TestExpositionGoldenProm pins WriteProm.
func TestExpositionGoldenProm(t *testing.T) {
	reg, step := goldenRegistry()
	step()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, "testdata/exposition_prom.txt", buf.Bytes())
	checkGoldenParse(t, buf.Bytes(), false)
}

// TestExpositionGoldenScrape pins the timestamped timeline: three
// scrapes at a cadence that is not a whole number of milliseconds, the
// metadata on the first only, # EOF at the end.
func TestExpositionGoldenScrape(t *testing.T) {
	reg, step := goldenRegistry()
	eng := des.New()
	eng.Every(des.Second, step)
	s := NewScraper(eng, reg, 1.2345678*des.Second)
	s.Start()
	eng.RunUntil(4 * des.Second)
	s.Stop()
	if s.Scrapes() != 3 {
		t.Fatalf("scrapes = %d, want 3", s.Scrapes())
	}
	var buf bytes.Buffer
	if err := s.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, "testdata/exposition_scrape.txt", buf.Bytes())
	checkGoldenParse(t, buf.Bytes(), true)
}

// TestExpositionGoldenScrapeStreamed feeds the same registry through a
// streaming scraper: the sink receives the golden's bytes, # EOF
// included, ended once however often Stop is called, and neither a
// restart nor WriteOpenMetrics adds a byte to it.
func TestExpositionGoldenScrapeStreamed(t *testing.T) {
	reg, step := goldenRegistry()
	eng := des.New()
	eng.Every(des.Second, step)
	var sink bytes.Buffer
	s := NewScraperTo(eng, reg, 1.2345678*des.Second, &sink)
	s.Start()
	eng.RunUntil(4 * des.Second)
	s.Stop()
	s.Stop()
	s.Start() // Stop is final on a streaming scraper
	eng.RunUntil(8 * des.Second)
	if s.Scrapes() != 3 {
		t.Fatalf("scrapes = %d, want 3", s.Scrapes())
	}
	var out bytes.Buffer
	if err := s.WriteOpenMetrics(&out); err == nil || out.Len() != 0 {
		t.Fatalf("WriteOpenMetrics on a streaming scraper: err %v, wrote %q", err, out.String())
	}
	want, err := os.ReadFile("testdata/exposition_scrape.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Errorf("streamed timeline diverged from the committed golden:\n%s", sink.Bytes())
	}
}

// TestScraperNilSink checks a streaming scraper with no sink: it keeps no
// timeline but still counts its scrapes, and WriteOpenMetrics says there
// is nothing to write.
func TestScraperNilSink(t *testing.T) {
	reg, step := goldenRegistry()
	eng := des.New()
	eng.Every(des.Second, step)
	s := NewScraperTo(eng, reg, des.Second, nil)
	s.Start()
	eng.RunUntil(3.5 * des.Second)
	s.Stop()
	if s.Scrapes() != 3 {
		t.Fatalf("scrapes = %d, want 3", s.Scrapes())
	}
	if err := s.WriteOpenMetrics(io.Discard); !errors.Is(err, errStreamed) {
		t.Fatalf("WriteOpenMetrics = %v, want %v", err, errStreamed)
	}
}
