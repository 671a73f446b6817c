// Package forensics is the fluctuation-forensics layer: an always-on,
// bounded-memory flight recorder plus a sim-time episode detector and a
// causal attribution pipeline that together turn "the p99 spiked" into a
// ranked, evidence-backed suspected-cause report.
//
// The three pieces:
//
//   - flight recorder (this file): fixed-capacity ring buffers of the
//     recent past — per-tier occupancy snapshots, controller decisions,
//     chaos fault activations, SCT estimate refreshes, and head-sampled
//     span summaries — fed by the audit-trail observer tap, the tracer's
//     end-of-request tap, and a once-per-second snapshot tick;
//   - episode detector (episodes.go): segments the windowed p99 of the
//     client request stream into fluctuation episodes via a
//     baseline-relative onset threshold with clearing hysteresis,
//     yielding onset/peak/recovery timestamps, depth, and area-over-SLO;
//   - attribution (attribution.go, report.go): per episode, diffs the
//     tier×component latency blame against the pre-episode baseline and
//     pulls the overlapping recorder evidence into a ranked cause list,
//     exported as JSON, an ASCII timeline, and a Perfetto annotation
//     track.
//
// Discipline, inherited from trace and telemetry: the layer only ever
// reads simulation state — it draws no randomness and schedules nothing
// besides its own read-only tick — so an armed run's trajectory is
// byte-identical to a bare one. A nil receiver is valid everywhere, and
// the nil hot path performs zero allocations (AllocsPerRun-pinned).
package forensics

import (
	"sync/atomic"

	"conscale/internal/des"
	"conscale/internal/trace"
)

// ring is a fixed-capacity overwrite-oldest buffer. The push count is
// atomic so Recorder.Counts may be polled from any goroutine; the backing
// slice is only touched from the simulation goroutine.
type ring[T any] struct {
	buf []T
	n   atomic.Uint64
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, capacity)}
}

// push overwrites the oldest slot. Allocation-free.
func (r *ring[T]) push(v T) {
	n := r.n.Load()
	r.buf[n%uint64(len(r.buf))] = v
	r.n.Store(n + 1)
}

// len returns how many slots currently hold live entries.
func (r *ring[T]) len() int {
	n := r.n.Load()
	if n > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(n)
}

// snapshot copies the live entries oldest-first.
func (r *ring[T]) snapshot() []T {
	k := r.len()
	out := make([]T, 0, k)
	n := r.n.Load()
	for i := n - uint64(k); i < n; i++ {
		out = append(out, r.buf[i%uint64(len(r.buf))])
	}
	return out
}

// TierStat is one tier's occupancy reading inside a snapshot.
type TierStat struct {
	// Ready is the count of VMs serving traffic.
	Ready int `json:"ready"`
	// Queue is the summed accept-queue depth across ready servers.
	Queue int `json:"queue"`
	// Active is the summed in-service request count.
	Active int `json:"active"`
	// CPU is the tier's mean CPU utilization (0..1).
	CPU float64 `json:"cpu"`
}

// TierSnapshot is one per-second occupancy reading across the stack,
// indexed by trace.TierID (the client slot carries only Clients).
type TierSnapshot struct {
	// Time is the simulated timestamp of the reading.
	Time des.Time `json:"time_s"`
	// Clients is the active client population at the reading.
	Clients int `json:"clients"`
	// Tiers holds per-tier occupancy, indexed by trace.TierID.
	Tiers [trace.NumTiers]TierStat `json:"tiers"`
}

// SpanSummary is the by-value digest of one head-sampled span tree — the
// recorder must not retain the pooled tree itself.
type SpanSummary struct {
	// ID is the trace ID (the root span's ID).
	ID uint64 `json:"id"`
	// Op is the servlet name.
	Op string `json:"op"`
	// Start is the request submit time.
	Start des.Time `json:"start_s"`
	// RT is the request's wall time in seconds.
	RT float64 `json:"rt_s"`
	// OK reports the request outcome.
	OK bool `json:"ok"`
	// HotTier locates the tier of the largest single latency component.
	HotTier trace.TierID `json:"hot_tier"`
	// HotKind is that component's segment kind (queue, cpu, net, ...).
	HotKind trace.SegKind `json:"hot_kind"`
	// HotMs is the hot component's magnitude in milliseconds.
	HotMs float64 `json:"hot_ms"`
}

// FaultRec is one chaos fault activation as seen through the audit trail
// (the injector records Value = window duration, so the recorder can
// reconstruct the window without importing the chaos package).
type FaultRec struct {
	// At is the fault activation time.
	At des.Time `json:"at_s"`
	// End closes the fault window (End == At for instantaneous faults).
	End des.Time `json:"end_s"`
	// Kind is the fault kind string ("vm-crash", "cpu-interference", ...).
	Kind string `json:"kind"`
	// Tier is the targeted tier name.
	Tier string `json:"tier"`
	// Target is the resolved victim (server name or whole-tier label).
	Target string `json:"target"`
}

// ShedRec is one admission-policy drop as seen through the cluster's
// shed observer tap: the entry-point moment a request was turned away
// to protect the tier's queue, by tier and priority class.
type ShedRec struct {
	// Time is the drop time.
	Time des.Time `json:"time_s"`
	// Tier names the shedding tier.
	Tier string `json:"tier"`
	// Class is the dropped request's priority class ("browse", "read-write").
	Class string `json:"class"`
}

// SCTRec is one refreshed per-server SCT estimate.
type SCTRec struct {
	// Time is when the estimate refreshed.
	Time des.Time `json:"time_s"`
	// Server is the estimated server.
	Server string `json:"server"`
	// Qlower is the lower end of the rational concurrency range.
	Qlower int `json:"qlower"`
	// Qupper is the upper end of the rational concurrency range.
	Qupper int `json:"qupper"`
	// Plateau is the estimated plateau throughput.
	Plateau float64 `json:"plateau"`
}

// Config tunes the forensics layer. Zero values take the documented
// defaults.
type Config struct {
	// SnapshotInterval is the occupancy-snapshot cadence (default 1 s).
	SnapshotInterval des.Time
	// SnapshotCap / DecisionCap / FaultCap / SCTCap / SpanCap / ShedCap
	// bound the ring buffers (defaults 512 / 1024 / 256 / 1024 / 512 /
	// 1024 entries).
	SnapshotCap, DecisionCap, FaultCap, SCTCap, SpanCap, ShedCap int
	// Detector tunes the episode detector.
	Detector DetectorConfig
	// BaselineWindow is how far before an episode's onset the attribution
	// pipeline reaches for its "normal" reference — blame baseline,
	// pre-episode client population, and suspect decisions (default 30 s).
	BaselineWindow des.Time
	// FaultLag extends a fault window's causal influence past its end:
	// a crash is instantaneous but its episode is not (default 30 s).
	FaultLag des.Time
}

func (cfg Config) withDefaults() Config {
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = des.Second
	}
	if cfg.SnapshotCap <= 0 {
		cfg.SnapshotCap = 512
	}
	if cfg.DecisionCap <= 0 {
		cfg.DecisionCap = 1024
	}
	if cfg.FaultCap <= 0 {
		cfg.FaultCap = 256
	}
	if cfg.SCTCap <= 0 {
		cfg.SCTCap = 1024
	}
	if cfg.SpanCap <= 0 {
		cfg.SpanCap = 512
	}
	if cfg.ShedCap <= 0 {
		cfg.ShedCap = 1024
	}
	if cfg.BaselineWindow <= 0 {
		cfg.BaselineWindow = 30 * des.Second
	}
	if cfg.FaultLag <= 0 {
		cfg.FaultLag = 30 * des.Second
	}
	cfg.Detector = cfg.Detector.withDefaults()
	return cfg
}

// Recorder is the flight recorder: bounded rings of the recent past,
// written on the simulation goroutine. The push counters are atomics so
// Counts may be polled from any goroutine; a nil *Recorder is a valid,
// inert receiver, and every feed method on it is a zero-allocation no-op.
type Recorder struct {
	snaps     ring[TierSnapshot]
	decisions ring[trace.AuditEvent]
	faults    ring[FaultRec]
	sct       ring[SCTRec]
	spans     ring[SpanSummary]
	sheds     ring[ShedRec]

	// comp is the span-fold scratch, reused so ObserveSpan allocates
	// nothing in steady state (simulation goroutine only).
	comp [trace.NumTiers][trace.NumSegKinds]float64
}

// NewRecorder builds a recorder with the configured capacities.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		snaps:     newRing[TierSnapshot](cfg.SnapshotCap),
		decisions: newRing[trace.AuditEvent](cfg.DecisionCap),
		faults:    newRing[FaultRec](cfg.FaultCap),
		sct:       newRing[SCTRec](cfg.SCTCap),
		spans:     newRing[SpanSummary](cfg.SpanCap),
		sheds:     newRing[ShedRec](cfg.ShedCap),
	}
}

// RecordSnapshot pushes one occupancy reading (no-op when nil).
func (r *Recorder) RecordSnapshot(s TierSnapshot) {
	if r == nil {
		return
	}
	r.snaps.push(s)
}

// ObserveAudit is the audit-trail tap (trace.Audit.SetObserver): fault
// activations land in the fault ring, SCT refreshes in the SCT ring, and
// every other controller action in the decision ring.
func (r *Recorder) ObserveAudit(e trace.AuditEvent) {
	if r == nil {
		return
	}
	switch e.Kind {
	case trace.AuditFault:
		r.faults.push(FaultRec{
			At:     e.Time,
			End:    e.Time + des.Time(e.Value),
			Kind:   e.Cause,
			Tier:   e.Tier,
			Target: e.Detail,
		})
	case trace.AuditSCTEstimate:
		r.sct.push(SCTRec{
			Time:    e.Time,
			Server:  e.Detail,
			Qlower:  e.Qlower,
			Qupper:  e.Qupper,
			Plateau: e.Value,
		})
	default:
		r.decisions.push(e)
	}
}

// ObserveShed is the cluster's admission-drop tap
// (cluster.SetShedObserver): every policy shed lands in the shed ring
// by tier and class, so attribution can tell "the p99 improved because
// we were dropping load" apart from organic recovery. Allocation-free.
func (r *Recorder) ObserveShed(s ShedRec) {
	if r == nil {
		return
	}
	r.sheds.push(s)
}

// ObserveSpan is the tracer's end-of-request tap (trace.Tracer.SetOnEnd):
// it digests the closed span tree into a by-value summary and pushes it,
// leaving the pooled tree to the tracer.
func (r *Recorder) ObserveSpan(root *trace.Span) {
	if r == nil || root == nil {
		return
	}
	r.comp = [trace.NumTiers][trace.NumSegKinds]float64{}
	r.foldSpan(root)
	sum := SpanSummary{
		ID:    root.ID,
		Op:    root.Op,
		Start: root.Start,
		RT:    float64(root.RT()),
		OK:    root.Outcome == trace.OutcomeOK,
	}
	for tier := trace.TierID(0); tier < trace.NumTiers; tier++ {
		for kind := trace.SegKind(0); kind < trace.NumSegKinds; kind++ {
			if ms := r.comp[tier][kind] * 1000; ms > sum.HotMs {
				sum.HotTier, sum.HotKind, sum.HotMs = tier, kind, ms
			}
		}
	}
	r.spans.push(sum)
}

// foldSpan accumulates the tree's segment durations into the scratch
// table without allocating (no closures — spans are walked recursively).
func (r *Recorder) foldSpan(s *trace.Span) {
	tier := trace.TierOf(s.Server)
	for _, seg := range s.Segs {
		r.comp[tier][seg.Kind] += float64(seg.End - seg.Start)
	}
	for _, c := range s.Children {
		r.foldSpan(c)
	}
}

// Snapshots returns the retained occupancy readings, oldest first
// (simulation goroutine only).
func (r *Recorder) Snapshots() []TierSnapshot {
	if r == nil {
		return nil
	}
	return r.snaps.snapshot()
}

// Decisions returns the retained controller decisions, oldest first.
func (r *Recorder) Decisions() []trace.AuditEvent {
	if r == nil {
		return nil
	}
	return r.decisions.snapshot()
}

// Faults returns the retained fault activations, oldest first.
func (r *Recorder) Faults() []FaultRec {
	if r == nil {
		return nil
	}
	return r.faults.snapshot()
}

// SCT returns the retained SCT estimate refreshes, oldest first.
func (r *Recorder) SCT() []SCTRec {
	if r == nil {
		return nil
	}
	return r.sct.snapshot()
}

// Spans returns the retained span summaries, oldest first.
func (r *Recorder) Spans() []SpanSummary {
	if r == nil {
		return nil
	}
	return r.spans.snapshot()
}

// Sheds returns the retained admission drops, oldest first.
func (r *Recorder) Sheds() []ShedRec {
	if r == nil {
		return nil
	}
	return r.sheds.snapshot()
}

// ShedCount returns the lifetime admission-drop push counter (safe from
// any goroutine; kept out of Counts to preserve its signature).
func (r *Recorder) ShedCount() uint64 {
	if r == nil {
		return 0
	}
	return r.sheds.n.Load()
}

// Counts returns the lifetime push counters per ring (safe from any
// goroutine) — snapshots, decisions, faults, SCT refreshes, spans.
func (r *Recorder) Counts() (snaps, decisions, faults, sct, spans uint64) {
	if r == nil {
		return 0, 0, 0, 0, 0
	}
	return r.snaps.n.Load(), r.decisions.n.Load(), r.faults.n.Load(),
		r.sct.n.Load(), r.spans.n.Load()
}

// Forensics bundles the armed layer: the flight recorder and the episode
// detector, sharing one Config. experiment.Run wires its taps and tick;
// Report runs the attribution pipeline over whatever they retained.
type Forensics struct {
	// Rec is the flight recorder.
	Rec *Recorder
	// Det is the episode detector.
	Det *Detector

	cfg Config
}

// New builds the layer with defaulted Config.
func New(cfg Config) *Forensics {
	cfg = cfg.withDefaults()
	return &Forensics{
		Rec: NewRecorder(cfg),
		Det: NewDetector(cfg.Detector),
		cfg: cfg,
	}
}

// Config returns the defaulted configuration the layer runs with.
func (f *Forensics) Config() Config {
	if f == nil {
		return Config{}.withDefaults()
	}
	return f.cfg
}
