package telemetry

import (
	"strings"
	"testing"

	"conscale/internal/des"
)

// TestScraperTimeline runs a scraper over a toy simulation and checks the
// timeline: one timestamped block per interval, metadata only on the first,
// terminated by # EOF, and the whole stream parses.
func TestScraperTimeline(t *testing.T) {
	eng := des.New()
	reg := NewRegistry()
	c := reg.Counter("test_ticks_total", "Ticks seen.")
	eng.Every(des.Second, func() { c.Inc() })

	s := NewScraper(eng, reg, 5*des.Second)
	s.Start()
	eng.RunUntil(20 * des.Second)
	s.Stop()

	if s.Scrapes() != 4 {
		t.Fatalf("scrapes = %d, want 4", s.Scrapes())
	}
	var sb strings.Builder
	if err := s.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatal("timeline missing # EOF terminator")
	}
	if n := strings.Count(out, "# TYPE test_ticks_total"); n != 1 {
		t.Fatalf("metadata repeated %d times, want once (first scrape only)", n)
	}
	fams, err := ParseProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("timeline failed to parse: %v", err)
	}
	var samples []PromSample
	for _, f := range fams {
		if f.Name == "test_ticks_total" {
			samples = f.Samples
		}
	}
	if len(samples) != 4 {
		t.Fatalf("timeline has %d samples, want 4", len(samples))
	}
	// Every sample carries its virtual-clock millisecond timestamp, and the
	// counter grows one tick per second of simulated time. At the shared
	// instant t=5k the scrape event was scheduled before that second's tick,
	// so the snapshot deterministically sees one tick fewer.
	for i, s := range samples {
		wantTS := int64(5000 * (i + 1))
		if !s.HasTS || s.TS != wantTS {
			t.Fatalf("sample %d: ts=%d (has=%v), want %d", i, s.TS, s.HasTS, wantTS)
		}
		if want := float64(5*(i+1) - 1); s.Value != want {
			t.Fatalf("sample %d: value=%v, want %v", i, s.Value, want)
		}
	}
}

// TestScraperRestartLeavesOneChain is the regression test for Stop
// followed by Start while the stopped chain's tick is still pending: the
// old tick must not scrape or re-arm beside the new chain. 1 s cadence:
// scrapes at 1 and 2, Stop+Start at 2.5, then 3.5 … 9.5 — nine in all
// (a surviving first chain would add 3 … 10 for seventeen).
func TestScraperRestartLeavesOneChain(t *testing.T) {
	eng := des.New()
	reg := NewRegistry()
	reg.Counter("test_ticks_total", "h").Inc()
	s := NewScraper(eng, reg, des.Second)
	s.Start()
	eng.RunUntil(2.5 * des.Second)
	s.Stop()
	s.Start()
	eng.RunUntil(10.25 * des.Second)
	if s.Scrapes() != 9 {
		t.Fatalf("scrapes = %d, want 9", s.Scrapes())
	}
	// Stopped for good: the pending tick of the second chain dies too.
	s.Stop()
	eng.RunUntil(20 * des.Second)
	if s.Scrapes() != 9 {
		t.Fatalf("scrapes after the final Stop = %d, want 9", s.Scrapes())
	}
}

// TestWarmScrapeAllocs bounds what one scrape of a warm scraper
// allocates: the pass's state, its emit closure, and the variadic label
// slice of each labelled collector emission (goldenRegistry has two) —
// four in all, and nothing per sample value, timestamp, bucket bound,
// label set or suffixed name.
func TestWarmScrapeAllocs(t *testing.T) {
	reg, step := goldenRegistry()
	step()
	s := NewScraper(des.New(), reg, des.Second)
	for i := 0; i < 64; i++ {
		s.scrapeOnce() // grow the timeline buffer well past one scrape
	}
	s.buf.Reset()
	if got := testing.AllocsPerRun(20, s.scrapeOnce); got > 4 {
		t.Fatalf("a warm scrape allocates %v times, budget 4", got)
	}
}

// BenchmarkWarmScrape renders one timestamped exposition block of the
// golden registry into a scraper whose buffers have grown.
func BenchmarkWarmScrape(b *testing.B) {
	reg, step := goldenRegistry()
	step()
	s := NewScraper(des.New(), reg, des.Second)
	s.scrapeOnce()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			s.buf.Reset() // keep the timeline from growing with b.N
		}
		s.scrapeOnce()
	}
}
