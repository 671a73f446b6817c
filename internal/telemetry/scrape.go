package telemetry

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"sync/atomic"

	"conscale/internal/des"
)

// Scraper snapshots a registry at a fixed simulated-time interval into an
// OpenMetrics-style timeline: the first scrape carries the # HELP / # TYPE
// metadata, every sample line carries its virtual-clock timestamp in
// milliseconds, and the stream ends with # EOF. A buffering scraper
// (NewScraper) keeps the timeline until WriteOpenMetrics; a streaming one
// (NewScraperTo) writes each scrape to its sink as it is taken.
//
// A scrape only reads registry state (instrument values, gauge callbacks,
// collectors), draws no randomness, and mutates nothing the simulation can
// observe, so arming a scraper cannot perturb a run: the timeline CSV of an
// armed-telemetry run is byte-identical to an unarmed run's.
type Scraper struct {
	reg *Registry
	eng *des.Engine

	every   des.Time // scrape cadence, fixed at construction
	scrapes atomic.Uint64
	started bool
	// chain numbers the armed tick chain. Stop moves it on, so a tick an
	// earlier chain left pending finds another number when it fires and
	// ends there, whether or not Start has armed a new chain meanwhile.
	chain uint64

	// buf holds a buffering scraper's timeline. A streaming one writes to
	// its sink instead and ends the stream once (ended); the sink owns its
	// write errors.
	buf       bytes.Buffer
	bw        *bufio.Writer // over buf or the sink, kept across scrapes
	streaming bool
	ended     bool
}

// errStreamed is WriteOpenMetrics' answer on a streaming scraper.
var errStreamed = errors.New("telemetry: the scrape timeline went to the scraper's sink; nothing is buffered")

// NewScraper couples a registry to an engine at the given interval
// (non-positive defaults to 5 s of virtual time). It buffers the
// timeline for WriteOpenMetrics.
func NewScraper(eng *des.Engine, reg *Registry, every des.Time) *Scraper {
	s := newScraper(eng, reg, every)
	s.bw = bufio.NewWriter(&s.buf)
	return s
}

// NewScraperTo is NewScraper for a timeline that streams: each scrape is
// written to w as it is taken and Stop ends the stream with # EOF, so w
// receives the bytes WriteOpenMetrics would write and the scraper keeps
// none of them. A nil w keeps no timeline; Scrapes still counts. Stop is
// final on a streaming scraper: Start after it arms nothing.
func NewScraperTo(eng *des.Engine, reg *Registry, every des.Time, w io.Writer) *Scraper {
	if w == nil {
		w = io.Discard
	}
	s := newScraper(eng, reg, every)
	s.bw = bufio.NewWriter(w)
	s.streaming = true
	return s
}

func newScraper(eng *des.Engine, reg *Registry, every des.Time) *Scraper {
	if every <= 0 {
		every = 5 * des.Second
	}
	return &Scraper{reg: reg, eng: eng, every: every}
}

// Start arms the scrape chain. The first scrape fires one interval from
// now. Start is idempotent.
func (s *Scraper) Start() {
	if s == nil || s.started || s.ended {
		return
	}
	s.started = true
	s.schedule()
}

// Stop disarms the chain; the pending tick becomes a no-op, also when
// Start re-arms before it fires. A streaming scraper's first Stop ends
// the stream: it writes # EOF to the sink.
func (s *Scraper) Stop() {
	if s == nil {
		return
	}
	s.started = false
	s.chain++
	if s.streaming && !s.ended {
		s.ended = true
		// The sink reports its own write errors.
		s.bw.WriteString("# EOF\n") //nolint:errcheck
		s.bw.Flush()                //nolint:errcheck
	}
}

func (s *Scraper) schedule() {
	chain := s.chain
	s.eng.After(s.every, func() {
		if s.chain != chain {
			return
		}
		s.scrapeOnce()
		s.schedule()
	})
}

// scrapeOnce appends one timestamped exposition block to the timeline.
func (s *Scraper) scrapeOnce() {
	ts := int64(math.Round(float64(s.eng.Now()) * 1000))
	first := s.scrapes.Load() == 0
	s.reg.writeText(s.bw, ts, true, first)
	s.bw.Flush() //nolint:errcheck // a bytes.Buffer write cannot fail; a sink reports its own
	s.scrapes.Add(1)
}

// Scrapes returns how many snapshots have been taken.
func (s *Scraper) Scrapes() int {
	if s == nil {
		return 0
	}
	return int(s.scrapes.Load())
}

// WriteOpenMetrics writes the accumulated timeline followed by the
// OpenMetrics end-of-stream marker. A streaming scraper has no timeline
// to write: it writes nothing and returns an error.
func (s *Scraper) WriteOpenMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	if s.streaming {
		return errStreamed
	}
	if _, err := w.Write(s.buf.Bytes()); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}
