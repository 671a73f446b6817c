package forensics

import (
	"encoding/json"
	"math"
	"sync/atomic"

	"conscale/internal/des"
	"conscale/internal/sla"
	"conscale/internal/telemetry"
)

// DetectorConfig tunes the episode detector. Zero values take the
// documented defaults.
type DetectorConfig struct {
	// Window is the sliding span of the windowed tail estimate
	// (default 10 s).
	Window des.Time
	// Percentile is the tracked tail (default 99).
	Percentile float64
	// Tick is the evaluation cadence (default 1 s).
	Tick des.Time
	// BaselineHalfLife is the EWMA half-life of the calm-period baseline
	// (default 60 s). The baseline only learns outside episodes, so a
	// long fluctuation cannot drag its own reference up.
	BaselineHalfLife des.Time
	// OnsetFactor opens an episode when the windowed tail exceeds
	// OnsetFactor × baseline (default 2.0).
	OnsetFactor float64
	// AbsFloor is the absolute onset floor so a calm 5 ms baseline
	// doesn't turn 12 ms into an "episode" (default 0.3 s, the SLO
	// target).
	AbsFloor float64
	// ClearFactor closes the episode when the tail drops back under
	// ClearFactor × the frozen onset baseline (default 1.2); together
	// with OnsetFactor this is the hysteresis band.
	ClearFactor float64
	// ClearFloor is the absolute clearing level that guarantees an exit
	// once the system is calm (default 0.25 s).
	ClearFloor float64
	// MinDuration drops blips shorter than this (default 3 s).
	MinDuration des.Time
	// SLO is the reference level of the area-over-SLO integral
	// (default 0.3 s).
	SLO float64
	// SeriesCap bounds the retained per-tick (p99, baseline) series used
	// by the ASCII timeline (default 4096 points).
	SeriesCap int
}

func (cfg DetectorConfig) withDefaults() DetectorConfig {
	if cfg.Window <= 0 {
		cfg.Window = 10 * des.Second
	}
	if cfg.Percentile <= 0 {
		cfg.Percentile = 99
	}
	if cfg.Tick <= 0 {
		cfg.Tick = des.Second
	}
	if cfg.BaselineHalfLife <= 0 {
		cfg.BaselineHalfLife = 60 * des.Second
	}
	if cfg.OnsetFactor <= 0 {
		cfg.OnsetFactor = 2.0
	}
	if cfg.AbsFloor <= 0 {
		cfg.AbsFloor = 0.3
	}
	if cfg.ClearFactor <= 0 {
		cfg.ClearFactor = 1.2
	}
	if cfg.ClearFloor <= 0 {
		cfg.ClearFloor = 0.25
	}
	if cfg.MinDuration <= 0 {
		cfg.MinDuration = 3 * des.Second
	}
	if cfg.SLO <= 0 {
		cfg.SLO = 0.3
	}
	if cfg.SeriesCap <= 0 {
		cfg.SeriesCap = 4096
	}
	return cfg
}

// TickPoint is one detector evaluation: the windowed tail, the learned
// baseline, and whether the tick fell inside an episode.
type TickPoint struct {
	// Time is the evaluation timestamp.
	Time des.Time `json:"time_s"`
	// P99 is the windowed tail estimate (NaN when the window was empty).
	P99 float64 `json:"p99_s"`
	// Baseline is the EWMA calm-period reference.
	Baseline float64 `json:"baseline_s"`
	// InEpisode reports the detector state at the tick.
	InEpisode bool `json:"in_episode"`
}

// MarshalJSON emits NaN tails (empty-window ticks) as null —
// encoding/json rejects NaN, and report consumers read null as a gap.
func (p TickPoint) MarshalJSON() ([]byte, error) {
	type alias struct {
		Time      des.Time `json:"time_s"`
		P99       *float64 `json:"p99_s"`
		Baseline  *float64 `json:"baseline_s"`
		InEpisode bool     `json:"in_episode"`
	}
	a := alias{Time: p.Time, InEpisode: p.InEpisode}
	if !math.IsNaN(p.P99) {
		a.P99 = &p.P99
	}
	if !math.IsNaN(p.Baseline) {
		a.Baseline = &p.Baseline
	}
	return json.Marshal(a)
}

// Episode is one detected response-time fluctuation: the segment between
// the baseline-relative onset crossing and the hysteresis clearing.
type Episode struct {
	// Onset is the tick the windowed tail crossed the onset threshold.
	Onset des.Time `json:"onset_s"`
	// Peak is the tick of the episode's worst tail.
	Peak des.Time `json:"peak_s"`
	// Recovery is the clearing tick (the run end on open episodes).
	Recovery des.Time `json:"recovery_s"`
	// OnsetP99 is the tail at the crossing tick.
	OnsetP99 float64 `json:"onset_p99_s"`
	// PeakP99 is the episode's maximum tail.
	PeakP99 float64 `json:"peak_p99_s"`
	// Baseline is the calm reference frozen at onset.
	Baseline float64 `json:"baseline_s"`
	// Depth is PeakP99 − Baseline: how far the tail climbed.
	Depth float64 `json:"depth_s"`
	// AreaOverSLO integrates max(0, p99 − SLO) over the episode (s·s).
	AreaOverSLO float64 `json:"area_over_slo"`
	// Open marks an episode still in progress at run end.
	Open bool `json:"open"`
}

// Duration returns the episode's wall length.
func (e Episode) Duration() des.Time { return e.Recovery - e.Onset }

// Detector segments the client request stream's windowed tail latency
// into fluctuation episodes. Observe and Tick run on the simulation
// goroutine; the counters are atomics so telemetry can read them live. A
// nil *Detector is a valid, inert receiver, and Observe on it is a
// zero-allocation no-op.
type Detector struct {
	cfg DetectorConfig

	tail     *sla.WindowTail
	baseline float64
	haveBase bool
	lastTick des.Time
	haveTick bool

	inEp     bool
	counted  bool
	cur      Episode
	episodes []Episode
	series   ring[TickPoint]

	total  atomic.Uint64
	inFlag atomic.Bool
}

// NewDetector builds a detector with defaulted config.
func NewDetector(cfg DetectorConfig) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:    cfg,
		tail:   sla.NewWindowTail(cfg.Window),
		series: newRing[TickPoint](cfg.SeriesCap),
	}
}

// Observe ingests one completed client request (failed requests carry no
// response-time signal and are skipped; the SLO monitor owns the error
// story). No-op when nil.
func (d *Detector) Observe(now des.Time, rt float64, ok bool) {
	if d == nil || !ok {
		return
	}
	d.tail.Add(now, rt)
}

// Tick evaluates the detector state machine at now: refresh the windowed
// tail, learn the baseline while calm, open an episode on the onset
// crossing, track peak and area inside one, close on the hysteresis
// clearing. Call it on a fixed cadence (DetectorConfig.Tick).
func (d *Detector) Tick(now des.Time) {
	if d == nil {
		return
	}
	dt := d.cfg.Tick
	if d.haveTick && now > d.lastTick {
		dt = now - d.lastTick
	}
	d.lastTick, d.haveTick = now, true

	p99 := d.tail.Percentile(now, d.cfg.Percentile)
	d.series.push(TickPoint{Time: now, P99: p99, Baseline: d.baseline, InEpisode: d.inEp})
	if math.IsNaN(p99) {
		// Empty window: no completions landed recently. Keep the state
		// machine where it is — a stalled system must not "recover" by
		// starving the estimator.
		return
	}

	if !d.inEp {
		if !d.haveBase {
			d.baseline, d.haveBase = p99, true
		} else {
			alpha := 1 - math.Exp2(-float64(dt)/float64(d.cfg.BaselineHalfLife))
			d.baseline += alpha * (p99 - d.baseline)
		}
		if p99 > math.Max(d.cfg.OnsetFactor*d.baseline, d.cfg.AbsFloor) {
			d.inEp = true
			d.inFlag.Store(true)
			d.cur = Episode{
				Onset:    now,
				Peak:     now,
				OnsetP99: p99,
				PeakP99:  p99,
				Baseline: d.baseline,
			}
			d.cur.AreaOverSLO = math.Max(0, p99-d.cfg.SLO) * float64(dt)
		}
		return
	}

	if p99 > d.cur.PeakP99 {
		d.cur.Peak, d.cur.PeakP99 = now, p99
	}
	d.cur.AreaOverSLO += math.Max(0, p99-d.cfg.SLO) * float64(dt)
	if !d.counted && now-d.cur.Onset >= d.cfg.MinDuration {
		d.counted = true
		d.total.Add(1)
	}
	if p99 < math.Max(d.cfg.ClearFactor*d.cur.Baseline, d.cfg.ClearFloor) {
		d.close(now, false)
	}
}

// close seals the current episode at t; episodes shorter than MinDuration
// are blips and are dropped (they were never counted either).
func (d *Detector) close(t des.Time, open bool) {
	d.inEp = false
	d.inFlag.Store(false)
	d.cur.Recovery = t
	d.cur.Depth = d.cur.PeakP99 - d.cur.Baseline
	d.cur.Open = open
	if d.counted {
		d.episodes = append(d.episodes, d.cur)
	}
	d.counted = false
}

// Finish seals a still-open episode at the run end (marked Open) so run
// reports never lose an in-progress fluctuation.
func (d *Detector) Finish(end des.Time) {
	if d == nil || !d.inEp {
		return
	}
	if !d.counted && end-d.cur.Onset >= d.cfg.MinDuration {
		d.counted = true
		d.total.Add(1)
	}
	d.close(end, true)
}

// Episodes returns the confirmed episodes, in onset order (simulation
// goroutine only).
func (d *Detector) Episodes() []Episode {
	if d == nil {
		return nil
	}
	out := make([]Episode, len(d.episodes))
	copy(out, d.episodes)
	return out
}

// Series returns the retained per-tick evaluation series, oldest first.
func (d *Detector) Series() []TickPoint {
	if d == nil {
		return nil
	}
	return d.series.snapshot()
}

// Count returns the confirmed-episode counter (safe from any goroutine;
// it includes a still-open episode once it outlives MinDuration).
func (d *Detector) Count() uint64 {
	if d == nil {
		return 0
	}
	return d.total.Load()
}

// InEpisode reports whether the detector is currently inside an episode
// (safe from any goroutine).
func (d *Detector) InEpisode() bool { return d != nil && d.inFlag.Load() }

// Register exposes the detector through a telemetry registry:
//
//	forensics_episodes_total  counter  confirmed fluctuation episodes
//	forensics_in_episode      gauge    1 while inside an episode
//
// Both read atomics, so the live Prometheus handler can scrape them from
// its own goroutine mid-run.
func (d *Detector) Register(reg *telemetry.Registry) {
	if d == nil || reg == nil {
		return
	}
	reg.CounterFunc("forensics_episodes_total",
		"Fluctuation episodes confirmed by the forensics detector.",
		func() float64 { return float64(d.Count()) })
	reg.GaugeFunc("forensics_in_episode",
		"1 while the forensics detector is inside a fluctuation episode.",
		func() float64 {
			if d.InEpisode() {
				return 1
			}
			return 0
		})
}
