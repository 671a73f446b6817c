package telemetry

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"sync/atomic"

	"conscale/internal/des"
)

// Scraper snapshots a registry at a fixed simulated-time interval into an
// OpenMetrics-style timeline: the first scrape carries the # HELP / # TYPE
// metadata, every sample line carries its virtual-clock timestamp in
// milliseconds, and WriteOpenMetrics terminates the stream with # EOF.
//
// A scrape only reads registry state (instrument values, gauge callbacks,
// collectors), draws no randomness, and mutates nothing the simulation can
// observe, so arming a scraper cannot perturb a run: the timeline CSV of an
// enabled-telemetry run is byte-identical to a disabled run's.
type Scraper struct {
	reg *Registry
	eng *des.Engine

	// intervalBits holds the des.Time interval as float64 bits so a
	// management agent can retune the cadence live; the new interval takes
	// effect when the next tick schedules its successor.
	intervalBits atomic.Uint64
	scrapes      atomic.Uint64
	started      bool
	// chain numbers the armed tick chain. Stop moves it on, so a tick an
	// earlier chain left pending finds another number when it fires and
	// ends there, whether or not Start has armed a new chain meanwhile.
	chain uint64

	buf bytes.Buffer
	bw  *bufio.Writer // over buf, kept across scrapes
}

// NewScraper couples a registry to an engine at the given interval
// (non-positive defaults to 5 s of virtual time).
func NewScraper(eng *des.Engine, reg *Registry, every des.Time) *Scraper {
	if every <= 0 {
		every = 5 * des.Second
	}
	s := &Scraper{reg: reg, eng: eng}
	s.bw = bufio.NewWriter(&s.buf)
	s.intervalBits.Store(math.Float64bits(float64(every)))
	return s
}

// Interval returns the live scrape cadence.
func (s *Scraper) Interval() des.Time {
	if s == nil {
		return 0
	}
	return des.Time(math.Float64frombits(s.intervalBits.Load()))
}

// SetInterval retunes the cadence (safe from any goroutine; non-positive
// values are ignored). The running tick chain picks it up at its next fire.
func (s *Scraper) SetInterval(d des.Time) {
	if s == nil || d <= 0 {
		return
	}
	s.intervalBits.Store(math.Float64bits(float64(d)))
}

// Start arms the scrape chain. The first scrape fires one interval from
// now. Start is idempotent.
func (s *Scraper) Start() {
	if s == nil || s.started {
		return
	}
	s.started = true
	s.schedule()
}

// Stop disarms the chain; the pending tick becomes a no-op, also when
// Start re-arms before it fires.
func (s *Scraper) Stop() {
	if s == nil {
		return
	}
	s.started = false
	s.chain++
}

func (s *Scraper) schedule() {
	chain := s.chain
	s.eng.After(s.Interval(), func() {
		if s.chain != chain {
			return
		}
		s.scrapeOnce()
		s.schedule()
	})
}

// scrapeOnce appends one timestamped exposition block to the timeline.
func (s *Scraper) scrapeOnce() {
	if !s.reg.Enabled() {
		return // paused via telemetry.enabled; the chain keeps ticking
	}
	ts := int64(math.Round(float64(s.eng.Now()) * 1000))
	first := s.scrapes.Load() == 0
	s.reg.writeText(s.bw, ts, true, first)
	s.bw.Flush() //nolint:errcheck // a bytes.Buffer write cannot fail
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
// OpenMetrics end-of-stream marker.
func (s *Scraper) WriteOpenMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	if _, err := w.Write(s.buf.Bytes()); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}
