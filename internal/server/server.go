package server

import (
	"fmt"
	"math"

	"conscale/internal/admission"
	"conscale/internal/des"
	"conscale/internal/metrics"
	"conscale/internal/rng"
	"conscale/internal/trace"
)

// Service accepts requests. Both *Server and the load balancer satisfy it,
// so any tier can sit behind a balancer transparently.
type Service interface {
	// Submit delivers a request. The service must eventually call
	// req.Done exactly once.
	Submit(req *Request)
}

// Request is one unit of work travelling through a tier. Done is invoked
// exactly once with the outcome; OK is false when the request was rejected
// (accept-queue overflow) or failed downstream.
//
// A Request is also the state of its own visit: the server executing it,
// the phase it is on, the burst or downstream call in progress and the
// stack of completion handlers pushed with PushDone all live here, so
// advancing a request schedules (handler, request) events and allocates
// nothing. The zero value plus the exported fields is a valid request.
type Request struct {
	// Phases is the visit program executed while holding a server thread.
	Phases []Phase
	// Done receives the outcome.
	Done func(ok bool)
	// Span is the request's trace span (nil on unsampled requests — the
	// common case; every span hook is a no-op then).
	Span *trace.Span
	// Class is the admission class (browse vs read-write), propagated
	// down the call tree so every tier's policy sees it.
	Class admission.Class
	// Shed is set when this request — or any downstream call it made —
	// was dropped by an admission policy rather than failing for another
	// reason.
	Shed bool

	arrival des.Time
	phase   int
	failed  bool

	// srv is the server executing the visit (set at thread admission);
	// parent is the upstream request whose thread this downstream call
	// holds (nil for a request its caller built).
	srv    *Server
	parent *Request

	// The step in progress. A downstream call records its descriptor and
	// the connection pool it draws from; a CPU or disk burst records its
	// jittered duration. start is when either was issued — what a sampled
	// request's span needs to book the wait.
	out   *OutCall
	pool  *ConnPool
	start des.Time
	burst des.Time

	// done is the completion stack behind PushDone; unwind is the bound
	// popDone, made once per Request, that Done points at while the stack
	// is not empty.
	done   []doneFrame
	unwind func(ok bool)

	// scratch is the storage an OutCall.BuildInto assembles this
	// request's visit program into; it survives recycling.
	scratch []Phase

	// pooled marks a request that came from a RequestPool; recycled marks
	// one that has been handed back and must not be touched until the
	// pool hands it out again.
	pooled, recycled bool
}

// doneFrame is one pushed completion handler and the Done it displaced.
type doneFrame struct {
	h    func(arg any, req *Request, ok bool)
	arg  any
	prev func(ok bool)
}

// PushDone registers h(arg, r, ok) to run when the request completes,
// before the handlers pushed earlier and before Done as it stands now —
// the allocation-free equivalent of wrapping Done in a closure, for
// callers whose h is a package-level function and whose arg is a pointer
// they already hold. It points Done at the request's own unwinder, so a
// service that completes the request by calling Done directly still runs
// every pushed handler. h may hand the request back to its pool.
func (r *Request) PushDone(h func(arg any, req *Request, ok bool), arg any) {
	if r.unwind == nil {
		r.unwind = r.popDone
	}
	r.done = append(r.done, doneFrame{h: h, arg: arg, prev: r.Done})
	r.Done = r.unwind
}

// popDone runs the newest completion handler, then the Done it displaced
// (which is popDone again while handlers remain beneath it).
func (r *Request) popDone(ok bool) {
	n := len(r.done) - 1
	if n < 0 {
		panic("server: request completed twice")
	}
	f := r.done[n]
	r.done[n] = doneFrame{}
	r.done = r.done[:n]
	f.h(f.arg, r, ok)
	// h may have recycled r; only the frame's copy is used from here on.
	if f.prev != nil {
		f.prev(ok)
	}
}

// RequestPool is a free list of Requests. Each owner of a hot submit path
// — a Server for its downstream calls, the cluster for client requests —
// keeps one, so a pool is only ever touched from its owner's engine
// goroutine and becomes garbage with the run. Requests built by callers
// (&Request{...}) never enter a pool. The zero value is an empty pool.
type RequestPool struct {
	free []*Request
}

// Get returns a zeroed request, recycled when one is available.
func (p *RequestPool) Get() *Request {
	n := len(p.free)
	if n == 0 {
		return &Request{pooled: true}
	}
	r := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	r.recycled = false
	return r
}

// Put hands back a request obtained from Get once it has completed. The
// request is zeroed (keeping only its reusable storage) and flagged:
// submitting or stepping it before Get returns it again panics.
func (p *RequestPool) Put(r *Request) {
	if !r.pooled || r.recycled || len(r.done) != 0 {
		panic("server: Put of a request that is foreign, already recycled, or still has completion handlers")
	}
	*r = Request{pooled: true, recycled: true, done: r.done, unwind: r.unwind, scratch: r.scratch[:0]}
	p.free = append(p.free, r)
}

// PhaseKind enumerates the step types of a visit program.
type PhaseKind int

// Phase kinds: CPU burst, disk burst, pure dwell (network/protocol wait
// that holds the thread but no hardware resource), a synchronous
// downstream call, and a network-edge transit. PhaseNet behaves exactly
// like PhaseSleep (a thread-holding dwell, jittered the same way); the
// distinct kind only changes how tracing classifies the time.
const (
	PhaseCPU PhaseKind = iota
	PhaseDisk
	PhaseSleep
	PhaseCall
	PhaseNet
)

// Phase is one step of a visit program.
type Phase struct {
	Kind     PhaseKind
	Duration des.Time // CPU/Disk/Sleep service demand (seconds)
	Call     *OutCall // for PhaseCall

	// lnDuration caches ln(Duration) for the jitter draw (see Compile);
	// zero means not cached.
	lnDuration float64
}

// Compile prepares a visit program that is built once and executed many
// times: it caches, in place, the logarithm of every positive Duration,
// which the lognormal jitter draw otherwise recomputes on each execution.
// It returns phases. A program that was not compiled runs identically,
// bit for bit — only slower.
func Compile(phases []Phase) []Phase {
	for i := range phases {
		if d := phases[i].Duration; d > 0 {
			phases[i].lnDuration = math.Log(float64(d))
		}
	}
	return phases
}

// OutCall describes a synchronous downstream call: the calling thread is
// held for its whole duration (thread-based RPC). If Pool is non-nil a
// connection is acquired first — this is how the app tier's DB connection
// pool throttles DB-tier concurrency. UseServerPool instead acquires from
// the executing server's own outbound pool (set with SetCallPool), which is
// how upstream tiers can build call phases without knowing which backend
// the balancer will pick.
type OutCall struct {
	Target        Service
	Pool          *ConnPool
	UseServerPool bool
	// Build produces the downstream request's phases at call time, so
	// per-request randomness stays with the originating request.
	Build func() []Phase
	// BuildInto, when set, is used instead of Build. It is handed the
	// downstream request's reusable scratch slice: a program that differs
	// from request to request is assembled into (*scratch)[:0] and stored
	// back, and stays valid until that request completes; a program that
	// does not can ignore scratch and return a shared immutable slice.
	BuildInto func(scratch *[]Phase) []Phase
}

// Config holds a server's static and soft-resource configuration.
type Config struct {
	Name        string
	Cores       int
	DiskChans   int // 0 means no disk
	ThreadLimit int // soft resource: max concurrently processing requests
	AcceptQueue int // pending slots beyond the thread pool; overflow rejects
	Overhead    Overhead
	DemandCV    float64  // lognormal sigma for per-burst demand jitter (0 = deterministic)
	Window      des.Time // fine-grained measurement window (0 = 50 ms)
	UtilWindow  des.Time // CPU utilization window (0 = 1 s)
}

// Server is one component server (VM) of the n-tier system.
type Server struct {
	eng  *des.Engine
	rnd  *rng.Source
	name string

	cpu  *ProcPool
	disk *ProcPool

	threadLimit int
	active      int
	accept      ring[*Request]
	acceptCap   int

	overhead Overhead
	demandCV float64

	// cpuSlowdown is the capacity-degradation factor (1 = nominal): noisy
	// neighbors on the VM's physical host stealing cycles make every CPU
	// burst take this many times its nominal duration.
	cpuSlowdown float64

	rec *metrics.Recorder
	tel Telemetry

	// adm is the admission policy guarding the accept queue (nil = admit
	// everything on the untouched pre-admission code path). admMeter and
	// onShed are passive observers of its decisions; sheds counts drops
	// per class unconditionally (plain counters, read at scrape time).
	adm      admission.Policy
	admMeter *admission.Meter
	onShed   func(now des.Time, class admission.Class)
	sheds    [admission.NumClasses]uint64

	callPool *ConnPool // outbound pool for UseServerPool calls (may be nil)

	// reqs recycles the downstream requests this server issues.
	reqs RequestPool

	draining bool // true once the VM is being retired; rejects new work
	killed   bool // true after a crash; in-flight work fails at phase edges
}

// New creates a server on the given engine. rnd must be a dedicated stream
// (use rng.Split) so per-server jitter is reproducible.
func New(eng *des.Engine, rnd *rng.Source, cfg Config) *Server {
	if cfg.Cores <= 0 {
		panic("server: config needs at least one core")
	}
	if cfg.ThreadLimit <= 0 {
		panic("server: config needs a positive thread limit")
	}
	if cfg.AcceptQueue < 0 {
		panic("server: negative accept queue")
	}
	window := cfg.Window
	if window == 0 {
		window = metrics.DefaultWindow
	}
	utilWindow := cfg.UtilWindow
	if utilWindow == 0 {
		utilWindow = des.Second
	}
	s := &Server{
		eng:         eng,
		rnd:         rnd,
		name:        cfg.Name,
		cpu:         NewProcPool(eng, cfg.Cores, utilWindow),
		threadLimit: cfg.ThreadLimit,
		acceptCap:   cfg.AcceptQueue,
		overhead:    cfg.Overhead,
		demandCV:    cfg.DemandCV,
		cpuSlowdown: 1,
		rec:         metrics.NewRecorder(window),
	}
	if cfg.DiskChans > 0 {
		s.disk = NewProcPool(eng, cfg.DiskChans, utilWindow)
	}
	return s
}

// Name returns the server's identity (e.g. "mysql1").
func (s *Server) Name() string { return s.name }

// Cores returns the VM's current core count.
func (s *Server) Cores() int { return s.cpu.Channels() }

// SetCores vertically scales the VM.
func (s *Server) SetCores(n int) { s.cpu.SetChannels(n) }

// SetCPUSlowdown sets the capacity-degradation factor: CPU bursts take
// f times their nominal duration while it is in effect — the noisy-neighbor
// interference a VM suffers when co-located tenants contend for its host's
// cores. f must be positive; 1 restores nominal capacity. The factor
// applies to bursts started after the call; bursts already on a core
// finish at their old speed (the hypervisor does not re-plan running
// quanta retroactively).
func (s *Server) SetCPUSlowdown(f float64) {
	if f <= 0 {
		panic("server: non-positive CPU slowdown")
	}
	s.cpuSlowdown = f
}

// CPUSlowdown returns the current capacity-degradation factor (1 = nominal).
func (s *Server) CPUSlowdown() float64 { return s.cpuSlowdown }

// ThreadLimit returns the soft-resource thread pool size.
func (s *Server) ThreadLimit() int { return s.threadLimit }

// SetThreadLimit adjusts the thread pool at runtime (the actuator path).
// Growth admits queued requests immediately.
func (s *Server) SetThreadLimit(n int) {
	if n <= 0 {
		panic("server: non-positive thread limit")
	}
	s.threadLimit = n
	s.admit()
}

// Active returns the number of requests currently holding threads.
func (s *Server) Active() int { return s.active }

// QueueLen returns the accept-queue length.
func (s *Server) QueueLen() int { return s.accept.len() }

// CPUUtilization returns the running 1-second CPU utilization (0..1).
func (s *Server) CPUUtilization() float64 { return s.cpu.Utilization() }

// DiskUtilization returns the running 1-second disk utilization, 0 when
// the VM has no disk model.
func (s *Server) DiskUtilization() float64 {
	if s.disk == nil {
		return 0
	}
	return s.disk.Utilization()
}

// FlushCPU drains completed CPU-utilization windows.
func (s *Server) FlushCPU() []metrics.TWSample { return s.cpu.FlushUtil() }

// FlushFine drains completed fine-grained request windows.
func (s *Server) FlushFine() []metrics.WindowSample { return s.rec.Flush(s.eng.Now()) }

// Recorder exposes the request recorder (tests, diagnostics).
func (s *Server) Recorder() *metrics.Recorder { return s.rec }

// SetCallPool installs the server's outbound connection pool, used by
// phases whose OutCall sets UseServerPool (the Tomcat DB connection pool).
func (s *Server) SetCallPool(p *ConnPool) { s.callPool = p }

// CallPool returns the outbound connection pool (nil if unset).
func (s *Server) CallPool() *ConnPool { return s.callPool }

// SetDraining marks the VM as retiring: new submissions are rejected while
// in-flight requests finish (the "slow turn off" half of scaling).
func (s *Server) SetDraining(d bool) { s.draining = d }

// Draining reports whether the VM is retiring.
func (s *Server) Draining() bool { return s.draining }

// Kill crashes the VM: new submissions are rejected, queued requests fail
// immediately, and in-flight requests fail at their next phase boundary
// (the "connection reset" a client of a crashed server observes).
func (s *Server) Kill() {
	s.draining = true
	s.killed = true
	now := s.eng.Now()
	for s.accept.len() > 0 {
		req := s.accept.pop()
		s.rec.Reject(now)
		s.tel.Rejects.Inc()
		req.Span.Finish(now, trace.OutcomeFailed)
		s.refuse(req)
	}
}

// Killed reports whether the VM has crashed.
func (s *Server) Killed() bool { return s.killed }

// SetAdmission installs (or with nil removes) the admission policy
// guarding the accept queue. Policies are stateful: every server needs
// its own instance.
func (s *Server) SetAdmission(p admission.Policy) { s.adm = p }

// Admission returns the installed admission policy (nil when off).
func (s *Server) Admission() admission.Policy { return s.adm }

// SetShedMeter installs a drop-rate meter fed with every admission
// decision (offered and shed) while a policy is armed.
func (s *Server) SetShedMeter(m *admission.Meter) { s.admMeter = m }

// SetShedObserver installs a read-only callback invoked on every shed —
// the forensics flight recorder's tap.
func (s *Server) SetShedObserver(fn func(now des.Time, class admission.Class)) { s.onShed = fn }

// ShedCount returns the number of requests the admission policy dropped
// in the given class.
func (s *Server) ShedCount(c admission.Class) uint64 { return s.sheds[c] }

// ShedTotal returns the total admission drops across classes.
func (s *Server) ShedTotal() uint64 {
	var t uint64
	for _, n := range s.sheds {
		t += n
	}
	return t
}

// refuse fails a request that never got a thread. The failure is
// delivered on the next event so callers never observe reentrant
// completion.
func (s *Server) refuse(req *Request) { s.eng.AfterArg(0, deliverRefusal, req) }

func deliverRefusal(arg any) {
	req := arg.(*Request)
	done := req.Done
	req.Done = nil
	done(false)
}

// Submit implements Service.
func (s *Server) Submit(req *Request) {
	if req.recycled {
		panic("server: Submit of a recycled request")
	}
	if s.draining || s.accept.len() >= s.acceptCap {
		// Reject before entering the request log's in-flight accounting;
		// the error still counts in this window.
		s.rec.Reject(s.eng.Now())
		s.tel.Rejects.Inc()
		req.Span.Finish(s.eng.Now(), trace.OutcomeRejected)
		s.refuse(req)
		return
	}
	if s.adm != nil {
		// Admission decision point: accept-queue entry, before pool
		// admit. A shed fails the request immediately without consuming
		// any server resource; the meter sees every decision.
		now := s.eng.Now()
		ok := s.adm.Admit(now, req.Class, s.accept.len())
		s.admMeter.Observe(now, req.Class, !ok)
		if !ok {
			s.sheds[req.Class]++
			s.rec.Reject(now)
			s.tel.Rejects.Inc()
			s.tel.Sheds[req.Class].Inc()
			req.Shed = true
			req.Span.Finish(now, trace.OutcomeShed)
			if s.onShed != nil {
				s.onShed(now, req.Class)
			}
			s.refuse(req)
			return
		}
	}
	req.arrival = s.eng.Now()
	req.Span.EnterServer(s.name, req.arrival)
	s.accept.push(req)
	s.admit()
}

func (s *Server) admit() {
	for s.active < s.threadLimit && s.accept.len() > 0 {
		req := s.accept.pop()
		req.srv = s
		s.active++
		// The request log counts *processing* concurrency (requests
		// holding threads), matching the paper's SCT tuples; accept-queue
		// time still counts toward the recorded response time because RT
		// is measured from submission.
		now := s.eng.Now()
		if s.adm != nil {
			// Feed the policy the accept-queue sojourn this request
			// actually experienced — CoDel's standing-queue signal.
			s.adm.ObserveDequeue(now, now-req.arrival)
		}
		s.rec.Arrive(now)
		req.Span.Admitted(now)
		s.step(req)
	}
}

// step advances a request to its next phase; when phases are exhausted the
// request completes and its thread is released. Every wait — a burst on a
// processor pool, a dwell, a connection grant, a downstream visit — ends
// in an event or callback that carries the request back here.
func (s *Server) step(req *Request) {
	if req.recycled {
		panic("server: step on a recycled request")
	}
	if s.killed {
		req.failed = true
	}
	if req.failed || req.phase >= len(req.Phases) {
		s.finish(req)
		return
	}
	ph := &req.Phases[req.phase]
	req.phase++
	switch ph.Kind {
	case PhaseCPU:
		d := s.jitter(ph) * des.Time(s.overhead.Factor(s.active, s.cpu.Channels())*s.cpuSlowdown)
		req.start, req.burst = s.eng.Now(), d
		s.cpu.demand(d, burstDone, req)
	case PhaseDisk:
		if s.disk == nil {
			panic(fmt.Sprintf("server %s: disk phase without a disk", s.name))
		}
		d := s.jitter(ph)
		req.start, req.burst = s.eng.Now(), d
		s.disk.demand(d, burstDone, req)
	case PhaseSleep, PhaseNet:
		d := s.jitter(ph)
		if sp := req.Span; sp != nil {
			kind := trace.SegDwell
			if ph.Kind == PhaseNet {
				kind = trace.SegNet
			}
			sp.AddSeg(kind, s.eng.Now(), s.eng.Now()+d)
		}
		s.eng.AfterArg(d, resume, req)
	case PhaseCall:
		s.call(req, ph.Call)
	default:
		panic("server: unknown phase kind")
	}
}

// resume is the event that ends a dwell.
func resume(arg any) {
	req := arg.(*Request)
	req.srv.step(req)
}

// burstDone is the processor pools' completion callback: it books the
// burst on a sampled request's span and moves on.
func burstDone(arg any) {
	req := arg.(*Request)
	s := req.srv
	if sp := req.Span; sp != nil {
		wait, svc := trace.SegCPUWait, trace.SegCPU
		if req.Phases[req.phase-1].Kind == PhaseDisk {
			wait, svc = trace.SegDiskWait, trace.SegDisk
		}
		sp.AddProc(wait, svc, req.start, req.burst, s.eng.Now())
	}
	s.step(req)
}

// call starts a synchronous downstream call, first waiting for a
// connection when the call is pooled.
func (s *Server) call(req *Request, out *OutCall) {
	pool := out.Pool
	if out.UseServerPool {
		pool = s.callPool
	}
	req.out, req.pool, req.start = out, pool, s.eng.Now()
	if pool != nil {
		pool.acquire(issueCall, req)
	} else {
		issueCall(req)
	}
}

// issueCall submits the downstream request of the call req is on, built
// from the caller's free list and bound to return through callReturn.
func issueCall(arg any) {
	req := arg.(*Request)
	s, out := req.srv, req.out
	var child *trace.Span
	if sp := req.Span; sp != nil {
		now := s.eng.Now()
		if req.pool != nil {
			sp.AddSeg(trace.SegPoolWait, req.start, now)
		}
		child = sp.StartChild(now)
	}
	down := s.reqs.Get()
	down.parent = req
	down.Span = child
	down.Class = req.Class
	if out.BuildInto != nil {
		down.Phases = out.BuildInto(&down.scratch)
	} else {
		down.Phases = out.Build()
	}
	down.PushDone(callReturn, nil)
	out.Target.Submit(down)
}

// callReturn is the completion handler of a downstream request: it gives
// the connection back, propagates a failure (and whether it was a shed)
// to the caller, recycles the downstream request and resumes the caller.
func callReturn(_ any, down *Request, ok bool) {
	req := down.parent
	s := req.srv
	shed := down.Shed
	s.reqs.Put(down)
	if req.pool != nil {
		req.pool.Release()
	}
	if !ok {
		req.failed = true
		if shed {
			req.Shed = true
		}
	}
	s.step(req)
}

func (s *Server) finish(req *Request) {
	s.active--
	now := s.eng.Now()
	if req.failed {
		s.rec.Drop(now)
		s.tel.Drops.Inc()
		req.Span.Finish(now, trace.OutcomeFailed)
	} else {
		s.rec.Depart(now, float64(now-req.arrival))
		s.tel.RT.Observe(float64(now - req.arrival))
		req.Span.Finish(now, trace.OutcomeOK)
	}
	done := req.Done
	req.Done = nil
	done(!req.failed)
	s.admit()
}

// jitter applies lognormal demand variation with the configured CV to a
// phase's duration.
func (s *Server) jitter(ph *Phase) des.Time {
	d := ph.Duration
	if s.demandCV <= 0 || d <= 0 {
		return d
	}
	ln := ph.lnDuration
	if ln == 0 {
		// Not compiled — or exactly one second, whose logarithm is 0.
		ln = math.Log(float64(d))
	}
	return des.Time(s.rnd.LogNormalLn(ln, s.demandCV))
}
