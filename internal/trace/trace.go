// Package trace is the per-request tracing subsystem: a head-sampled,
// allocation-disciplined span recorder threaded through the whole request
// lifecycle (generator submit → LB pick → accept-queue wait → thread-pool
// admit → CPU/disk service → connection-pool wait → network edge →
// downstream call → finish/drop/reject). Every sampled request yields one
// span tree in simulated time; on top of the raw trees the package builds
//
//   - blame attribution: the decomposition of p50/p95/p99 response time
//     into per-tier, per-wait-type components over time windows — the
//     paper's queue-amplification story made quantitative;
//   - a controller audit trail (audit.go): every Decision Controller
//     action annotated with its cause, on the same clock as the spans;
//   - exporters (export.go): Chrome trace-event JSON for Perfetto, an
//     ASCII waterfall of the slowest-request reservoir, and blame CSV.
//
// Discipline: the tracer owns a private rng stream, so arming it never
// perturbs the simulation's random draws — a traced run is byte-identical
// to an untraced run. A nil *Tracer and a nil *Span are valid receivers
// for every method (the unarmed fast path), and that path performs zero
// allocations; span storage is pooled so steady-state sampling recycles
// trees instead of growing the heap.
package trace

import (
	"sync/atomic"

	"conscale/internal/des"
	"conscale/internal/rng"
)

// TierID identifies the tier a span's server belongs to, derived from the
// server naming convention so the package needs no dependency on the
// cluster. TierClient covers spans that never reached a server (LB reject
// with an empty backend set).
type TierID uint8

// The tiers, in request-path order.
const (
	TierClient TierID = iota
	TierWeb
	TierApp
	TierCache
	TierDB
	NumTiers
)

// String implements fmt.Stringer.
func (t TierID) String() string {
	switch t {
	case TierClient:
		return "client"
	case TierWeb:
		return "web"
	case TierApp:
		return "tomcat"
	case TierCache:
		return "memcached"
	case TierDB:
		return "mysql"
	default:
		return "tier?"
	}
}

// TierOf maps a server name to its tier by the cluster's naming convention
// ("web1", "tomcat2", "memcached1", "mysql1"); unknown names (including
// "", a span that never entered a server) map to TierClient.
func TierOf(server string) TierID {
	switch {
	case hasPrefix(server, "web"):
		return TierWeb
	case hasPrefix(server, "tomcat"):
		return TierApp
	case hasPrefix(server, "memcached"):
		return TierCache
	case hasPrefix(server, "mysql"):
		return TierDB
	default:
		return TierClient
	}
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// SegKind classifies one segment of a span's wall time.
type SegKind uint8

// The wait/service classes of the blame decomposition. Queue covers the
// accept-queue plus thread-pool admission wait (the soft-resource wait the
// paper's SCT model governs); PoolWait is the connection-pool acquire wait
// on the calling side; CPUWait/DiskWait are hardware run-queue waits;
// CPU/Disk are actual service; Dwell is protocol dwell that holds a thread
// but no hardware (PhaseSleep); Net is injected network-edge latency; Shed
// is queue time a request accrued before an admission policy dropped it —
// shed load stays attributed instead of vanishing from the decomposition.
const (
	SegQueue SegKind = iota
	SegPoolWait
	SegCPUWait
	SegCPU
	SegDiskWait
	SegDisk
	SegDwell
	SegNet
	SegShed
	NumSegKinds
)

// String implements fmt.Stringer.
func (k SegKind) String() string {
	switch k {
	case SegQueue:
		return "queue"
	case SegPoolWait:
		return "pool-wait"
	case SegCPUWait:
		return "cpu-wait"
	case SegCPU:
		return "cpu"
	case SegDiskWait:
		return "disk-wait"
	case SegDisk:
		return "disk"
	case SegDwell:
		return "dwell"
	case SegNet:
		return "net"
	case SegShed:
		return "shed"
	default:
		return "seg?"
	}
}

// IsWait reports whether the kind is time spent waiting rather than being
// served (the numerator of the blame story).
func (k SegKind) IsWait() bool {
	switch k {
	case SegQueue, SegPoolWait, SegCPUWait, SegDiskWait, SegNet, SegShed:
		return true
	default:
		return false
	}
}

// Outcome is a span's terminal state.
type Outcome uint8

// Span outcomes. Open marks a span still in flight (or abandoned by a
// crash; EndRequest closes those with the request's outcome).
const (
	OutcomeOpen Outcome = iota
	OutcomeOK
	OutcomeFailed
	OutcomeRejected
	// OutcomeShed marks a request dropped by an admission policy at
	// accept-queue entry (distinct from Rejected, the hard accept-queue
	// overflow).
	OutcomeShed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeOpen:
		return "open"
	case OutcomeOK:
		return "ok"
	case OutcomeFailed:
		return "failed"
	case OutcomeRejected:
		return "rejected"
	case OutcomeShed:
		return "shed"
	default:
		return "outcome?"
	}
}

// Segment is one classified interval of a span's wall time.
type Segment struct {
	Kind       SegKind
	Start, End des.Time
}

// Span is one tier visit of a sampled request. The root span is the whole
// client-observed request (its Server is the web VM that served it);
// children are downstream calls, in issue order. All methods are safe on a
// nil receiver — the unarmed/unsampled fast path.
type Span struct {
	tr *Tracer

	// ID is unique per tracer; the root's ID identifies the trace.
	ID uint64
	// Op is the root's servlet name ("" on child spans).
	Op string
	// Server is the VM that executed the visit ("" before admission, or
	// forever for an LB reject with no backends).
	Server string
	// LB and PickInFlight record the balancer decision: which balancer
	// dispatched the span and the chosen backend's in-flight count at
	// pick time (the leastconn signal).
	LB           string
	PickInFlight int

	// Start is span creation (submit); Arrive is arrival at the server;
	// Admit is thread-pool admission (negative while never admitted); End
	// is the terminal time.
	Start, Arrive, Admit, End des.Time
	Outcome                   Outcome

	Segs     []Segment
	Children []*Span
	parent   *Span
}

// RT returns the span's wall time (End-Start); 0 while open.
func (s *Span) RT() des.Time {
	if s == nil || s.Outcome == OutcomeOpen {
		return 0
	}
	return s.End - s.Start
}

// EnterServer marks arrival at a server's accept queue.
func (s *Span) EnterServer(server string, now des.Time) {
	if s == nil {
		return
	}
	s.Server = server
	s.Arrive = now
}

// Admitted marks thread-pool admission and books the accept-queue plus
// admit wait as a SegQueue segment.
func (s *Span) Admitted(now des.Time) {
	if s == nil {
		return
	}
	s.Admit = now
	if now > s.Arrive {
		s.Segs = append(s.Segs, Segment{Kind: SegQueue, Start: s.Arrive, End: now})
	}
}

// AddSeg books one classified interval. Zero-length intervals are dropped.
func (s *Span) AddSeg(kind SegKind, start, end des.Time) {
	if s == nil || end <= start {
		return
	}
	s.Segs = append(s.Segs, Segment{Kind: kind, Start: start, End: end})
}

// AddProc books one processor-pool demand that issued at t0 and completed
// at now after d of contiguous service: the run-queue wait [t0, now-d] and
// the service interval [now-d, now].
func (s *Span) AddProc(waitKind, svcKind SegKind, t0, d, now des.Time) {
	if s == nil {
		return
	}
	svcStart := now - d
	if svcStart > t0 {
		s.Segs = append(s.Segs, Segment{Kind: waitKind, Start: t0, End: svcStart})
	}
	s.AddSeg(svcKind, svcStart, now)
}

// NotePick records the balancer decision that routed this span.
func (s *Span) NotePick(lbName string, inFlight int) {
	if s == nil {
		return
	}
	s.LB = lbName
	s.PickInFlight = inFlight
}

// StartChild opens a downstream-call span. Returns nil on a nil receiver,
// so instrumentation can thread it unconditionally.
func (s *Span) StartChild(now des.Time) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.get()
	c.Start = now
	c.Arrive = now
	c.parent = s
	s.Children = append(s.Children, c)
	return c
}

// Finish closes the span. A span already closed stays closed (crash paths
// may race a close against the request bubbling up).
func (s *Span) Finish(now des.Time, o Outcome) {
	if s == nil || s.Outcome != OutcomeOpen {
		return
	}
	// A span abandoned in the accept queue (drop, kill) spent its whole
	// server life waiting; book it so failed requests decompose too.
	// Admission sheds get their own component so dropped load stays
	// visible in the blame decomposition.
	if o != OutcomeOK && s.Admit < 0 && s.Server != "" && now > s.Arrive {
		kind := SegQueue
		if o == OutcomeShed {
			kind = SegShed
		}
		s.Segs = append(s.Segs, Segment{Kind: kind, Start: s.Arrive, End: now})
	}
	s.End = now
	s.Outcome = o
}

// Walk visits the span and its descendants depth-first, parents first.
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	s.walk(fn, 0)
}

func (s *Span) walk(fn func(sp *Span, depth int), depth int) {
	fn(s, depth)
	for _, c := range s.Children {
		c.walk(fn, depth+1)
	}
}

// Config tunes a Tracer. Zero values take the documented defaults.
type Config struct {
	// Seed feeds the tracer's private sampling stream. The stream is
	// independent of every simulation stream, so traced and untraced runs
	// of the same experiment are byte-identical.
	Seed uint64
	// SampleRate is the head-sampling probability (default 1/64; 1 traces
	// everything).
	SampleRate float64
	// Reservoir is how many slowest-request span trees to retain in full
	// (default 12; negative keeps none).
	Reservoir int
	// BlameWindow is the aggregation window of the blame table (default
	// 10 s).
	BlameWindow des.Time
}

// Tracer samples requests into span trees and aggregates them into the
// blame table and the slowest-request reservoir. Start/End run on the
// simulation goroutine; the lifetime counters are atomics so Stats may be
// polled from any goroutine.
type Tracer struct {
	rate float64 // head-sampling probability, fixed at New

	started   atomic.Uint64 // requests offered
	sampled   atomic.Uint64 // requests traced
	completed atomic.Uint64 // traced requests finished OK
	failed    atomic.Uint64 // traced requests failed or rejected

	rnd    *rng.Source
	nextID uint64
	free   []*Span // span pool

	resvMax int
	resv    []*Span // min-heap on RT: [0] is the fastest of the kept slow set

	blame blameAgg
	audit *Audit
	onEnd func(root *Span)
}

// New builds a tracer with its audit trail armed.
func New(cfg Config) *Tracer {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 1.0 / 64
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.Reservoir == 0 {
		cfg.Reservoir = 12
	}
	if cfg.Reservoir < 0 {
		cfg.Reservoir = 0
	}
	if cfg.BlameWindow <= 0 {
		cfg.BlameWindow = 10 * des.Second
	}
	return &Tracer{
		rate:    cfg.SampleRate,
		rnd:     rng.New(cfg.Seed ^ 0x7ace5eed),
		resvMax: cfg.Reservoir,
		blame:   blameAgg{window: cfg.BlameWindow},
		audit:   NewAudit(),
	}
}

// Audit returns the tracer's controller audit trail (never nil on a
// non-nil tracer).
func (t *Tracer) Audit() *Audit {
	if t == nil {
		return nil
	}
	return t.audit
}

// Stats returns the lifetime counters: requests offered, sampled, and —
// of the sampled — completed OK vs failed/rejected.
func (t *Tracer) Stats() (started, sampled, completed, failed uint64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	return t.started.Load(), t.sampled.Load(), t.completed.Load(), t.failed.Load()
}

// StartRequest offers one client request to the head sampler. It returns
// the root span, or nil when the tracer is nil or the request was not
// drawn — the nil span then makes every downstream hook a no-op.
func (t *Tracer) StartRequest(op string, now des.Time) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	if t.rnd.Float64() >= t.rate {
		return nil
	}
	t.sampled.Add(1)
	s := t.get()
	s.Op = op
	s.Start = now
	s.Arrive = now
	return s
}

// EndRequest closes a sampled request: unfinished spans are closed with
// the request outcome (crash and reject paths abandon spans mid-tree),
// the tree is folded into the blame table, offered to the slowest-request
// reservoir, and recycled unless the reservoir kept it.
func (t *Tracer) EndRequest(root *Span, now des.Time, ok bool) {
	if t == nil || root == nil {
		return
	}
	closeOpen(root, now, ok)
	if ok {
		t.completed.Add(1)
	} else {
		t.failed.Add(1)
	}
	t.blame.add(root)
	if t.onEnd != nil {
		t.onEnd(root)
	}
	if t.offer(root) {
		return
	}
	t.recycle(root)
}

// SetOnEnd installs a tap called from EndRequest with every sampled,
// fully closed span tree, before the tree is offered to the reservoir or
// recycled (simulation goroutine only — set it before the run starts).
// The callback must not retain the tree: spans are pooled, so anything it
// wants to keep has to be summarized by value. The unsampled
// path never reaches the hook, so the nil-span fast path stays
// allocation-free.
func (t *Tracer) SetOnEnd(fn func(root *Span)) {
	if t != nil {
		t.onEnd = fn
	}
}

func closeOpen(s *Span, now des.Time, ok bool) {
	o := OutcomeOK
	if !ok {
		o = OutcomeFailed
	}
	s.Finish(now, o)
	// Segments booked ahead of time (dwell is scheduled to its full length
	// at entry) can overshoot a span cut short by a kill; clamp them so the
	// decomposition never claims more time than the span lived.
	for i := range s.Segs {
		if s.Segs[i].Start > s.End {
			s.Segs[i].Start = s.End
		}
		if s.Segs[i].End > s.End {
			s.Segs[i].End = s.End
		}
	}
	for _, c := range s.Children {
		closeOpen(c, now, ok)
	}
}

// get pops a pooled span or allocates one.
func (t *Tracer) get() *Span {
	t.nextID++
	var s *Span
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		s = &Span{}
	}
	s.tr = t
	s.ID = t.nextID
	s.Admit = -1
	return s
}

// recycle returns a tree to the pool, keeping slice capacity.
func (t *Tracer) recycle(s *Span) {
	for _, c := range s.Children {
		t.recycle(c)
	}
	segs := s.Segs[:0]
	children := s.Children[:0]
	*s = Span{Segs: segs, Children: children}
	if len(t.free) < 4096 {
		t.free = append(t.free, s)
	}
}

// offer pushes the finished root into the slowest-K reservoir; it reports
// whether the tree was kept. The displaced fastest tree is recycled.
func (t *Tracer) offer(root *Span) bool {
	if t.resvMax <= 0 {
		return false
	}
	if len(t.resv) < t.resvMax {
		t.resv = append(t.resv, root)
		t.siftUp(len(t.resv) - 1)
		return true
	}
	if root.RT() <= t.resv[0].RT() {
		return false
	}
	evicted := t.resv[0]
	t.resv[0] = root
	t.siftDown(0)
	t.recycle(evicted)
	return true
}

func (t *Tracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.resv[p].RT() <= t.resv[i].RT() {
			return
		}
		t.resv[p], t.resv[i] = t.resv[i], t.resv[p]
		i = p
	}
}

func (t *Tracer) siftDown(i int) {
	n := len(t.resv)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && t.resv[l].RT() < t.resv[m].RT() {
			m = l
		}
		if r < n && t.resv[r].RT() < t.resv[m].RT() {
			m = r
		}
		if m == i {
			return
		}
		t.resv[m], t.resv[i] = t.resv[i], t.resv[m]
		i = m
	}
}

// Slowest returns the reservoir's span trees, slowest first. The trees
// stay owned by the tracer; callers must not mutate them.
func (t *Tracer) Slowest() []*Span {
	if t == nil {
		return nil
	}
	out := make([]*Span, len(t.resv))
	copy(out, t.resv)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].RT() > out[j-1].RT(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
