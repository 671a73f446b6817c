// Package twin runs an analytical twin of the simulated cluster: an
// online observer that periodically snapshots the live configuration
// (ready VMs per tier, workload mix, think time) into a closed MVA
// network (internal/qnet), solves it, and streams the model's predicted
// throughput/response-time/utilization beside the measured values.
//
// The residuals — relative RT error, Little's-law residual, the
// flow-conservation (steadiness) imbalance, and the per-tier
// utilization gap — are the observability product: when the simulator
// and the queueing model agree in regimes where the theory applies, the
// simulator's more ambitious claims (controller rankings, tail-latency
// orderings) inherit credibility; when they diverge outside any
// forensics episode, that divergence is itself the signal (a sim-bug or
// model-bug candidate).
//
// The twin follows the house observer discipline: a nil *Observer is a
// valid inert receiver, the nil hot path allocates nothing
// (pinned by TestTwinNilZeroAlloc), and an armed twin only reads
// simulation state — armed runs are byte-identical to bare ones
// (TestTwinRunByteIdentical).
//
// What the model can and cannot predict is part of the contract: exact
// MVA describes the steady state of a closed separable network. It has
// no notion of transients (scale-outs mid-boot, population ramps),
// admission drops, or pool-limit blocking, so every tick first passes a
// regime-applicability gate; inapplicable ticks carry a reason string
// ("regime inapplicable: ...") instead of residuals and never advance
// the drift detector. DESIGN.md §16 documents the full contract.
package twin

import (
	"fmt"
	"math"
	"sync/atomic"

	"conscale/internal/des"
	"conscale/internal/qnet"
	"conscale/internal/rubbos"
	"conscale/internal/telemetry"
	"conscale/internal/trace"
)

// Config tunes the twin observer. Zero values take the documented
// defaults.
type Config struct {
	// Interval is the snapshot/solve cadence (default 5 s).
	Interval des.Time
	// MaxPopulation caps the MVA population the twin will solve (the
	// recursion is O(N·K) per tick); ticks above it are inapplicable
	// (default 50000).
	MaxPopulation int
	// RelErrThreshold is the RT relative error above which a tick counts
	// toward drift (default 0.25).
	RelErrThreshold float64
	// DriftTicks is the number of consecutive applicable over-threshold
	// ticks that raises the drift flag (default 3).
	DriftTicks int
	// ClearTicks is the number of consecutive applicable under-threshold
	// ticks that clears it (default 2).
	ClearTicks int
	// FlowTolerance bounds the windowed arrival/completion imbalance
	// accepted as "steady" (default 0.10).
	FlowTolerance float64
	// PopTolerance bounds the relative population change between ticks
	// accepted as "steady" (default 0.10).
	PopTolerance float64
	// SampleCap bounds the retained sample series (default 4096; older
	// samples are dropped oldest-first).
	SampleCap int
}

func (cfg Config) withDefaults() Config {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * des.Second
	}
	if cfg.MaxPopulation <= 0 {
		cfg.MaxPopulation = 50000
	}
	if cfg.RelErrThreshold <= 0 {
		cfg.RelErrThreshold = 0.25
	}
	if cfg.DriftTicks <= 0 {
		cfg.DriftTicks = 3
	}
	if cfg.ClearTicks <= 0 {
		cfg.ClearTicks = 2
	}
	if cfg.FlowTolerance <= 0 {
		cfg.FlowTolerance = 0.10
	}
	if cfg.PopTolerance <= 0 {
		cfg.PopTolerance = 0.10
	}
	if cfg.SampleCap <= 0 {
		cfg.SampleCap = 4096
	}
	return cfg
}

// Model is the twin's static view of the deployment: everything the
// snapshot needs that is not per-tick observable state.
type Model struct {
	// Workload returns the *current* workload object. It is a getter,
	// not a pointer: cluster.SetDatasetScale and SetMix replace the
	// workload mid-run, and a captured pointer would silently model the
	// wrong demands.
	Workload func() *rubbos.Workload
	// ThinkTime is the client think time Z in seconds.
	ThinkTime float64
	// WebCores, AppCores, DBCores are per-VM core counts.
	WebCores, AppCores, DBCores int
	// DiskChans is the per-DB-VM disk channel count.
	DiskChans int
}

// TierObs is the measured state of one tier at a tick.
type TierObs struct {
	// Ready is the count of VMs serving traffic.
	Ready int
	// Queue and Active are the tier's request occupancy split.
	Queue, Active int
	// CPU is the mean utilization over the tier's ready VMs (0..1).
	CPU float64
}

// Observation is the per-tick measured state the run loop feeds Tick.
// The twin never touches the cluster itself: keeping the read in the
// caller makes the byte-identity argument local (the ticker only calls
// accessors that allocate nothing and mutate nothing).
type Observation struct {
	// Time is the tick timestamp.
	Time des.Time
	// Clients is the live closed-loop population (thinking + waiting).
	Clients int
	// BootingVMs counts launched-but-not-ready VMs; any non-zero value
	// marks a scale transition in flight.
	BootingVMs int
	// Web, App, DB are the per-tier measurements.
	Web, App, DB TierObs
}

// TierCompare pairs one tier's predicted and observed operating point.
type TierCompare struct {
	// PredUtil and ObsUtil are per-server utilizations (0..1).
	PredUtil, ObsUtil float64
	// PredQueue is the MVA mean customer count at the tier's CPU
	// station. It is reported, not gated: the measured app-tier
	// occupancy includes threads blocked on synchronous DB round trips,
	// which the model books at the DB station (see DESIGN §16).
	PredQueue float64
	// ObsQueue is the measured tier occupancy (queued + active).
	ObsQueue int
}

// Sample is one twin evaluation: the window's measurements, the model's
// predictions, and the residuals between them. Predictions and
// residuals are only meaningful when Applicable is true.
type Sample struct {
	// Time is the tick timestamp.
	Time des.Time
	// Clients is the live closed-loop population at the tick.
	Clients int
	// Applicable reports whether the steady-state regime gate passed.
	Applicable bool
	// Reason says which precondition failed when Applicable is false.
	Reason string
	// ObsThroughput is the window's completion rate (1/s).
	ObsThroughput float64
	// ObsMeanRT is the window's mean response time (s).
	ObsMeanRT float64
	// ObsErrors counts failed requests in the window.
	ObsErrors int
	// PredThroughput is the MVA throughput at the live population.
	PredThroughput float64
	// PredRT is the MVA response time at the live population (s).
	PredRT float64
	// Web, App, DB compare per-tier operating points.
	Web, App, DB TierCompare
	// RTRelErr is |pred−obs|/obs on the window's mean response time.
	RTRelErr float64
	// TPRelErr is |pred−obs|/obs on the window's throughput.
	TPRelErr float64
	// LittlesResidual is |N − X·(R+Z)|/N over the window — a pure
	// measurement invariant of the closed loop, model-free.
	LittlesResidual float64
	// FlowResidual is the window's |arrivals − completions| imbalance
	// relative to their maximum (the steadiness probe).
	FlowResidual float64
	// UtilGap is the worst per-tier |PredUtil − ObsUtil|.
	UtilGap float64
	// InDrift reports the drift flag state after this tick.
	InDrift bool
}

// DriftEvent is one sustained model/measurement divergence.
type DriftEvent struct {
	// At is the tick the flag raised; ClearedAt the tick it cleared
	// (run end for open events).
	At, ClearedAt des.Time
	// Open marks a drift still flagged at run end.
	Open bool
	// MaxRelErr is the worst RT relative error while flagged.
	MaxRelErr float64
	// InEpisode records whether the forensics detector was inside a
	// fluctuation episode when the flag raised.
	InEpisode bool
	// Class is the cross-referenced verdict: divergence inside an
	// episode is an expected transient; divergence on a calm system is
	// a model- or simulator-bug candidate.
	Class string
}

// Drift classifications.
const (
	// ClassTransient marks drift that raised inside a forensics episode.
	ClassTransient = "transient (inside forensics episode)"
	// ClassModelBug marks drift on a calm system — the model and the
	// simulator disagree where both claim to apply.
	ClassModelBug = "divergence on calm system (model/sim bug candidate)"
)

// EpisodeSource is the forensics cross-reference hook: anything that
// can answer "is the system inside a fluctuation episode right now?".
// *forensics.Detector satisfies it.
type EpisodeSource interface {
	InEpisode() bool
}

// Observer is the analytical-twin observer. The Observe* hot-path taps
// and Tick run on the simulation goroutine; the counters and the
// last-residual gauges are atomics so telemetry can read them live. A nil
// *Observer is a valid, inert receiver.
type Observer struct {
	cfg   Config
	model Model

	audit    *trace.Audit
	episodes EpisodeSource

	// Window accumulators, reset every tick (simulation goroutine).
	winArrivals int
	winOK       int
	winErr      int
	winRTSum    float64

	// Previous-tick state for the transition gates.
	lastTick  des.Time
	haveTick  bool
	prevN     int
	prevReady [3]int
	havePrev  bool

	// Drift state machine.
	inDrift  bool
	overRun  int
	underRun int
	curDrift DriftEvent
	drifts   []DriftEvent
	samples  []Sample
	dropped  int

	// Live-readable state.
	ticks      atomic.Uint64
	applicable atomic.Uint64
	driftTotal atomic.Uint64
	inFlag     atomic.Bool
	relErrBits atomic.Uint64
	littleBits atomic.Uint64
}

// New builds an observer with defaulted config. The model's
// Workload getter must be non-nil before the first Tick.
func New(cfg Config, model Model) *Observer {
	o := &Observer{cfg: cfg.withDefaults(), model: model}
	o.relErrBits.Store(math.Float64bits(math.NaN()))
	o.littleBits.Store(math.Float64bits(math.NaN()))
	return o
}

// Config returns the defaulted configuration.
func (o *Observer) Config() Config {
	if o == nil {
		return Config{}.withDefaults()
	}
	return o.cfg
}

// SetAudit installs the decision trail that receives AuditTwinDrift /
// AuditTwinClear events (set before the run starts).
func (o *Observer) SetAudit(a *trace.Audit) {
	if o != nil {
		o.audit = a
	}
}

// SetEpisodeSource installs the forensics cross-reference used to
// classify drift flags (set before the run starts; nil means every
// drift classifies as calm-system divergence).
func (o *Observer) SetEpisodeSource(src EpisodeSource) {
	if o != nil {
		o.episodes = src
	}
}

// ObserveArrival counts one request submission into the current window
// (the arrivals side of the flow-conservation probe). No-op when nil;
// zero allocations either way.
func (o *Observer) ObserveArrival() {
	if o == nil {
		return
	}
	o.winArrivals++
}

// Observe ingests one completed client request into the current window.
// No-op when nil; zero allocations either way.
func (o *Observer) Observe(now des.Time, rt float64, ok bool) {
	if o == nil {
		return
	}
	if ok {
		o.winOK++
		o.winRTSum += rt
	} else {
		o.winErr++
	}
}

// inapplicable finalises a gated-out tick.
func (o *Observer) inapplicable(s *Sample, reason string) {
	s.Applicable = false
	s.Reason = "regime inapplicable: " + reason
}

// Tick evaluates the twin at one snapshot: harvest the window, run the
// applicability gate, solve the MVA network at the live population,
// compute residuals, and advance the drift state machine. Call it on a
// fixed cadence (Config.Interval) from the simulation goroutine.
func (o *Observer) Tick(obs Observation) {
	if o == nil {
		return
	}
	o.ticks.Add(1)
	s := Sample{Time: obs.Time, Clients: obs.Clients, InDrift: o.inDrift}

	// Harvest and reset the window.
	arr, okN, errN, rtSum := o.winArrivals, o.winOK, o.winErr, o.winRTSum
	o.winArrivals, o.winOK, o.winErr, o.winRTSum = 0, 0, 0, 0
	dt := o.cfg.Interval
	if o.haveTick && obs.Time > o.lastTick {
		dt = obs.Time - o.lastTick
	}
	o.lastTick, o.haveTick = obs.Time, true

	s.ObsErrors = errN
	if okN > 0 {
		s.ObsThroughput = float64(okN) / float64(dt)
		s.ObsMeanRT = rtSum / float64(okN)
	}
	done := okN + errN
	if den := maxInt(arr, done); den > 0 {
		s.FlowResidual = math.Abs(float64(arr-done)) / float64(den)
	}

	// Transition bookkeeping for the gates (updated even on
	// inapplicable ticks so one transition doesn't poison the next).
	ready := [3]int{obs.Web.Ready, obs.App.Ready, obs.DB.Ready}
	prevReady, prevN, havePrev := o.prevReady, o.prevN, o.havePrev
	o.prevReady, o.prevN, o.havePrev = ready, obs.Clients, true

	// Regime-applicability gate, most fundamental precondition first.
	switch {
	case done == 0:
		o.inapplicable(&s, "empty window (no completions)")
	case okN == 0:
		o.inapplicable(&s, "no successful completions (all requests dropped)")
	case obs.BootingVMs > 0:
		o.inapplicable(&s, fmt.Sprintf("scale transition in flight (%d VMs booting)", obs.BootingVMs))
	case havePrev && ready != prevReady:
		o.inapplicable(&s, "scale transition (ready VM count changed)")
	case havePrev && relChange(obs.Clients, prevN) > o.cfg.PopTolerance:
		o.inapplicable(&s, fmt.Sprintf("population ramp (%d -> %d clients)", prevN, obs.Clients))
	case s.FlowResidual > o.cfg.FlowTolerance:
		o.inapplicable(&s, fmt.Sprintf("flow imbalance (%.0f%% arrival/completion gap)", s.FlowResidual*100))
	case obs.Clients <= 0:
		o.inapplicable(&s, "no live clients")
	case obs.Clients > o.cfg.MaxPopulation:
		o.inapplicable(&s, fmt.Sprintf("population %d above solver cap %d", obs.Clients, o.cfg.MaxPopulation))
	}
	if !s.Applicable && s.Reason != "" {
		o.push(s)
		return
	}

	net, err := qnet.SnapshotNetwork(qnet.LiveState{
		Workload:  o.model.Workload(),
		ThinkTime: o.model.ThinkTime,
		WebVMs:    obs.Web.Ready, AppVMs: obs.App.Ready, DBVMs: obs.DB.Ready,
		WebCores: o.model.WebCores, AppCores: o.model.AppCores, DBCores: o.model.DBCores,
		DiskChans: o.model.DiskChans,
	})
	if err != nil {
		o.inapplicable(&s, err.Error())
		o.push(s)
		return
	}
	res := net.Solve(obs.Clients)
	s.Applicable = true
	o.applicable.Add(1)
	s.PredThroughput = res.Throughput
	s.PredRT = res.ResponseTime

	fill := func(tc *TierCompare, station string, t TierObs) {
		tc.ObsUtil = t.CPU
		tc.ObsQueue = t.Queue + t.Active
		if i := net.StationIndex(station); i >= 0 {
			tc.PredUtil = res.Utilization[i]
			tc.PredQueue = res.QueueLen[i]
		}
	}
	fill(&s.Web, "web-cpu", obs.Web)
	fill(&s.App, "app-cpu", obs.App)
	fill(&s.DB, "db-cpu", obs.DB)
	s.UtilGap = math.Max(math.Abs(s.Web.PredUtil-s.Web.ObsUtil),
		math.Max(math.Abs(s.App.PredUtil-s.App.ObsUtil), math.Abs(s.DB.PredUtil-s.DB.ObsUtil)))

	s.RTRelErr = math.Abs(s.PredRT-s.ObsMeanRT) / s.ObsMeanRT
	s.TPRelErr = math.Abs(s.PredThroughput-s.ObsThroughput) / s.ObsThroughput
	s.LittlesResidual = math.Abs(float64(obs.Clients)-s.ObsThroughput*(s.ObsMeanRT+o.model.ThinkTime)) / float64(obs.Clients)
	o.relErrBits.Store(math.Float64bits(s.RTRelErr))
	o.littleBits.Store(math.Float64bits(s.LittlesResidual))

	o.advanceDrift(&s)
	o.push(s)
}

// advanceDrift runs the hysteresis state machine on one applicable
// sample.
func (o *Observer) advanceDrift(s *Sample) {
	if s.RTRelErr > o.cfg.RelErrThreshold {
		o.overRun++
		o.underRun = 0
	} else {
		o.underRun++
		o.overRun = 0
	}
	if !o.inDrift {
		if o.overRun >= o.cfg.DriftTicks {
			o.inDrift = true
			o.inFlag.Store(true)
			o.driftTotal.Add(1)
			inEp := o.episodes != nil && o.episodes.InEpisode()
			class := ClassModelBug
			if inEp {
				class = ClassTransient
			}
			o.curDrift = DriftEvent{At: s.Time, MaxRelErr: s.RTRelErr, InEpisode: inEp, Class: class}
			o.audit.Record(trace.AuditEvent{
				Time:  s.Time,
				Kind:  trace.AuditTwinDrift,
				Tier:  "twin",
				Cause: class,
				Detail: fmt.Sprintf("rt rel err %.0f%% for %d ticks (pred %.0f ms, obs %.0f ms)",
					s.RTRelErr*100, o.overRun, s.PredRT*1000, s.ObsMeanRT*1000),
				Value: s.RTRelErr,
			})
		}
	} else {
		if s.RTRelErr > o.curDrift.MaxRelErr {
			o.curDrift.MaxRelErr = s.RTRelErr
		}
		if o.underRun >= o.cfg.ClearTicks {
			o.closeDrift(s.Time, false)
		}
	}
	s.InDrift = o.inDrift
}

func (o *Observer) closeDrift(t des.Time, open bool) {
	o.inDrift = false
	o.inFlag.Store(false)
	o.curDrift.ClearedAt = t
	o.curDrift.Open = open
	o.drifts = append(o.drifts, o.curDrift)
	if !open {
		o.audit.Record(trace.AuditEvent{
			Time:   t,
			Kind:   trace.AuditTwinClear,
			Tier:   "twin",
			Cause:  o.curDrift.Class,
			Detail: fmt.Sprintf("worst rt rel err %.0f%%", o.curDrift.MaxRelErr*100),
			Value:  o.curDrift.MaxRelErr,
		})
	}
}

// Finish seals a still-open drift at the run end (marked Open).
func (o *Observer) Finish(end des.Time) {
	if o == nil || !o.inDrift {
		return
	}
	o.closeDrift(end, true)
}

// push appends a sample, bounded by SampleCap (oldest dropped first).
func (o *Observer) push(s Sample) {
	if len(o.samples) >= o.cfg.SampleCap {
		n := copy(o.samples, o.samples[1:])
		o.samples = o.samples[:n]
		o.dropped++
	}
	o.samples = append(o.samples, s)
}

// Samples returns the retained evaluation series, oldest first
// (simulation goroutine only).
func (o *Observer) Samples() []Sample {
	if o == nil {
		return nil
	}
	out := make([]Sample, len(o.samples))
	copy(out, o.samples)
	return out
}

// Dropped reports how many samples fell out of the bounded series.
func (o *Observer) Dropped() int {
	if o == nil {
		return 0
	}
	return o.dropped
}

// Drifts returns the sealed drift events, in raise order (simulation
// goroutine only; call Finish first to seal an open one).
func (o *Observer) Drifts() []DriftEvent {
	if o == nil {
		return nil
	}
	out := make([]DriftEvent, len(o.drifts))
	copy(out, o.drifts)
	return out
}

// Ticks returns the evaluated-tick counter (safe from any goroutine).
func (o *Observer) Ticks() uint64 {
	if o == nil {
		return 0
	}
	return o.ticks.Load()
}

// Applicable returns the applicable-tick counter (safe from any
// goroutine).
func (o *Observer) Applicable() uint64 {
	if o == nil {
		return 0
	}
	return o.applicable.Load()
}

// DriftCount returns the raised-drift counter (safe from any
// goroutine).
func (o *Observer) DriftCount() uint64 {
	if o == nil {
		return 0
	}
	return o.driftTotal.Load()
}

// InDrift reports whether the flag is currently raised (safe from any
// goroutine).
func (o *Observer) InDrift() bool { return o != nil && o.inFlag.Load() }

// LastRelErr returns the most recent applicable tick's RT relative
// error (NaN before the first; safe from any goroutine).
func (o *Observer) LastRelErr() float64 {
	if o == nil {
		return math.NaN()
	}
	return math.Float64frombits(o.relErrBits.Load())
}

// LastLittlesResidual returns the most recent applicable tick's
// Little's-law residual (NaN before the first; safe from any
// goroutine).
func (o *Observer) LastLittlesResidual() float64 {
	if o == nil {
		return math.NaN()
	}
	return math.Float64frombits(o.littleBits.Load())
}

// Register exposes the twin through a telemetry registry:
//
//	twin_rt_rel_err       gauge    last applicable |pred−obs|/obs on mean RT
//	twin_littles_residual gauge    last applicable |N − X·(R+Z)|/N
//	twin_in_drift         gauge    1 while the drift flag is raised
//	twin_ticks_total      counter  evaluated snapshots
//	twin_applicable_total counter  snapshots that passed the regime gate
//	twin_drift_total      counter  drift flags raised
//
// All read atomics, so the live Prometheus handler can scrape them from
// its own goroutine mid-run. NaN gauges (before the first applicable
// tick) are exposed as 0 — OpenMetrics text has no NaN literal
// consumers agree on.
func (o *Observer) Register(reg *telemetry.Registry) {
	if o == nil || reg == nil {
		return
	}
	noNaN := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	reg.GaugeFunc("twin_rt_rel_err",
		"Analytical twin: last applicable RT relative error |pred-obs|/obs.",
		func() float64 { return noNaN(o.LastRelErr()) })
	reg.GaugeFunc("twin_littles_residual",
		"Analytical twin: last applicable Little's-law residual |N - X(R+Z)|/N.",
		func() float64 { return noNaN(o.LastLittlesResidual()) })
	reg.GaugeFunc("twin_in_drift",
		"1 while the analytical twin flags sustained model/measurement divergence.",
		func() float64 {
			if o.InDrift() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("twin_ticks_total",
		"Analytical twin snapshots evaluated.",
		func() float64 { return float64(o.Ticks()) })
	reg.CounterFunc("twin_applicable_total",
		"Analytical twin snapshots that passed the regime-applicability gate.",
		func() float64 { return float64(o.Applicable()) })
	reg.CounterFunc("twin_drift_total",
		"Drift flags raised by the analytical twin.",
		func() float64 { return float64(o.DriftCount()) })
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// relChange is |a−b| relative to the larger magnitude (0 when both are
// 0).
func relChange(a, b int) float64 {
	den := maxInt(abs(a), abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(float64(a-b)) / float64(den)
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
