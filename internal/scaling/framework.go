package scaling

import (
	"fmt"
	"math"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/metrics"
	"conscale/internal/sct"
	"conscale/internal/server"
	"conscale/internal/sla"
	"conscale/internal/trace"
)

// Framework is the control runtime: it drives one Controller against one
// cluster and owns everything every policy shares — the metric-warehouse
// collection loop, the decision ticker, the windowed tail tracker, the
// SCT signal refresh, the dark-tier repair path, launch bookkeeping, the
// decision log, and audit/telemetry recording — so a policy is nothing
// but a Tick function over Observations.
type Framework struct {
	cfg   Config
	c     *cluster.Cluster
	ctrl  Controller
	loops Loops
	hw    HardwareObserver // nil unless the policy observes launches landing

	w   *metrics.Warehouse
	sig *Signal

	tail   *sla.WindowTail
	slaFed des.Time

	events []Event
	// pending counts launches in flight per tier (step policies burst).
	pending map[cluster.Tier]int

	// Cheap ints mirroring the audit trail's accounting for the telemetry
	// registry, maintained unconditionally.
	triggers      int // triggers that armed a scale-out
	cooldownSkips int // triggers suppressed by a pending launch or cooldown
	actions       int // scale actions accepted
	denies        int // scale actions refused
	// audit receives every decision with its cause annotation (nil = no
	// audit trail; Record on nil is a no-op).
	audit *trace.Audit

	collector *des.Ticker
	decider   *des.Ticker
	estimator *des.Ticker
	adapter   *des.Ticker
}

// New attaches the paper policy cfg.Mode names (EC2, DCM or ConScale) to
// a cluster. Call Start to begin control. It panics on a Mode outside
// the three: that is a programming error, not configuration.
func New(c *cluster.Cluster, cfg Config) *Framework {
	f, err := NewNamed(c, cfg.Mode.String(), Options{Base: cfg})
	if err != nil {
		panic(err)
	}
	return f
}

// NewNamed builds the registered policy name resolves to and attaches it
// to a cluster — the one assembly path every run takes.
func NewNamed(c *cluster.Cluster, name string, opts Options) (*Framework, error) {
	ctrl, err := NewController(name, opts)
	if err != nil {
		return nil, err
	}
	return Attach(c, ctrl, opts), nil
}

// Attach attaches a controller to a cluster. Call Start to begin
// control. The controller's Init runs here, before any simulation event
// fires.
func Attach(c *cluster.Cluster, ctrl Controller, opts Options) *Framework {
	opts.Base = opts.Base.withDefaults()
	f := &Framework{
		cfg:     opts.Base,
		c:       c,
		ctrl:    ctrl,
		loops:   Loops{Estimator: true},
		w:       metrics.NewWarehouse(opts.Base.WarehouseRetention),
		tail:    sla.NewWindowTail(opts.Base.SLAWindow),
		pending: make(map[cluster.Tier]int),
	}
	f.sig = newSignal(c, f.w, opts.Base)
	ctrl.Init(Env{Cluster: c, Act: f, Signal: f.sig, Opts: opts, rt: f})
	if ld, ok := ctrl.(LoopDeclarer); ok {
		f.loops = ld.Loops()
	}
	f.hw, _ = ctrl.(HardwareObserver)
	return f
}

// Warehouse exposes the metric warehouse backing the SCT signal.
func (f *Framework) Warehouse() *metrics.Warehouse { return f.w }

// Events returns the decision log.
func (f *Framework) Events() []Event { return f.events }

// Estimates returns the SCT signal's current per-server view (empty for
// a policy that arms no estimator).
func (f *Framework) Estimates() map[string]sct.Estimate { return f.sig.Estimates() }

// SetAudit attaches a controller decision audit trail: every trigger,
// cooldown suppression, VM action, SCT estimate, and pool resize is
// recorded there with its cause (nil detaches). Call before Start so
// the first decisions are recorded.
func (f *Framework) SetAudit(a *trace.Audit) {
	f.audit = a
	f.sig.audit = a
}

// Start arms the control loops, in the fixed order Loops documents.
func (f *Framework) Start() {
	eng := f.c.Eng
	f.collector = eng.Every(des.Second, func() { f.c.CollectInto(f.w) })
	f.decider = eng.Every(f.cfg.CheckEvery, f.tick)
	if f.loops.Estimator {
		f.estimator = eng.Every(f.cfg.EstimateEvery, func() {
			f.sig.refresh()
			if f.loops.AfterEstimate != nil {
				f.loops.AfterEstimate()
			}
		})
	}
	if f.loops.Adapt != nil && f.cfg.AdaptEvery > 0 {
		f.adapter = eng.Every(f.cfg.AdaptEvery, f.loops.Adapt)
	}
}

// Stop disarms the loops and stops the controller (end of experiment).
func (f *Framework) Stop() {
	for _, t := range []*des.Ticker{f.collector, f.decider, f.estimator, f.adapter} {
		if t != nil {
			t.Stop()
		}
	}
	f.ctrl.Stop()
}

// tick is one decision interval: repair dark tiers, observe, let the
// controller act.
func (f *Framework) tick() {
	for _, tier := range []cluster.Tier{cluster.Web, cluster.App, cluster.DB} {
		f.repairTier(tier)
	}
	obs := f.observe()
	obs.Tail = f.feedTail(obs.Now)
	f.ctrl.Tick(obs)
}

// repairTier re-provisions a tier with zero ready VMs. Scale-in never
// empties a tier, so this only fires when external faults (crash
// injection) killed the last VM; without it the tier's CPU signal reads
// zero and no utilization-driven policy would ever recover the system.
func (f *Framework) repairTier(tier cluster.Tier) {
	if f.c.ReadyCount(tier) > 0 || f.pending[tier] > 0 {
		return
	}
	const cause = "tier dark: zero ready VMs"
	now := f.c.Eng.Now()
	f.log(Event{Time: now, Kind: Repair, Tier: tier, Detail: "tier dark: provisioning replacement"})
	f.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditRepair, Tier: tier.String(),
		Cause: cause, Detail: "launch replacement"})
	if !f.launch(tier, Repair, cause) {
		f.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditScaleOutDenied, Tier: tier.String(),
			Cause: "repair launch refused: tier at capacity"})
	}
}

// launch is the one place a VM is provisioned: the pending count, the
// ready callback's log and audit records (in the repair or scale-out
// vocabulary kind selects), and the policy's HardwareChanged hook. It
// returns false when the tier is at capacity.
func (f *Framework) launch(tier cluster.Tier, kind EventKind, cause string) bool {
	readyKind := trace.AuditScaleOutReady
	if kind == Repair {
		readyKind = trace.AuditRepair
	}
	f.pending[tier]++
	launched := f.c.AddVM(tier, func(srv *server.Server) {
		ready := f.c.Eng.Now()
		f.pending[tier]--
		f.log(Event{Time: ready, Kind: kind, Tier: tier, Detail: srv.Name() + " ready"})
		f.audit.Record(trace.AuditEvent{Time: ready, Kind: readyKind, Tier: tier.String(),
			Cause: cause, Detail: srv.Name() + " ready"})
		if f.hw != nil {
			f.hw.HardwareChanged(tier)
		}
	})
	if !launched {
		f.pending[tier]--
	}
	return launched
}

// feedTail feeds the web tier's server-side response times into the
// sliding tail tracker and returns the windowed percentile: the web tier
// covers the whole downstream path, so it approximates client-visible
// latency without client telemetry.
func (f *Framework) feedTail(now des.Time) float64 {
	for _, srv := range f.c.Servers(cluster.Web) {
		for _, w := range f.w.FineSince(srv.Name(), f.slaFed) {
			if w.Completions > 0 && !math.IsNaN(w.RT) {
				f.tail.Add(w.Start, w.RT)
			}
		}
	}
	f.slaFed = now
	return f.tail.Percentile(now, f.cfg.SLAPercentile)
}

// observe builds the cluster view of this instant: tier states, the
// soft-resource settings, and the SCT signal. The tick adds the tail.
func (f *Framework) observe() *Observation {
	obs := &Observation{
		Now:  f.c.Eng.Now(),
		App:  f.tierState(cluster.App),
		DB:   f.tierState(cluster.DB),
		Tail: math.NaN(),
	}
	// App threads waiting on a DB connection belong to the DB tier's
	// state: they measure DB-side soft-resource pressure.
	for _, srv := range f.c.Servers(cluster.App) {
		if p := srv.CallPool(); p != nil {
			obs.DB.PoolWaiting += p.Waiting()
		}
	}
	_, obs.Threads, obs.Conns = f.c.SoftResources()
	obs.AppSCT = f.sig.Tier(cluster.App)
	obs.DBSCT = f.sig.Tier(cluster.DB)
	return obs
}

// tierState summarizes one tier's hardware view.
func (f *Framework) tierState(tier cluster.Tier) TierState {
	st := TierState{
		CPU:     f.c.TierCPU(tier),
		Ready:   f.c.ReadyCount(tier),
		Pending: f.pending[tier] > 0,
		MinCPU:  math.NaN(),
	}
	for _, srv := range f.c.Servers(tier) {
		if srv.Draining() {
			continue
		}
		u := srv.CPUUtilization()
		if math.IsNaN(st.MinCPU) || u < st.MinCPU {
			st.MinCPU = u
		}
		if u > st.MaxCPU {
			st.MaxCPU = u
		}
		if u < 0.10 {
			st.Idle++
		}
		if d := srv.DiskUtilization(); d > st.Disk {
			st.Disk = d
		}
		st.Queue += srv.QueueLen()
	}
	if math.IsNaN(st.MinCPU) {
		st.MinCPU = 0
	}
	return st
}

// trigger records that a policy's rule armed a scale-out on the tier;
// value is the measurement that crossed the rule (0 when the cause says
// it all).
func (f *Framework) trigger(tier cluster.Tier, cause string, value float64) {
	f.triggers++
	f.audit.Record(trace.AuditEvent{Time: f.c.Eng.Now(), Kind: trace.AuditThresholdTrigger, Tier: tier.String(),
		Cause: cause, Value: value})
}

// ScaleOut implements Actuator: record the trigger and launch one VM on
// the tier. Multiple launches may be in flight at once (step policies
// burst); the controller sees obs.Pending and throttles itself.
func (f *Framework) ScaleOut(tier cluster.Tier, cause string) bool {
	f.trigger(tier, cause, 0)
	return f.scaleOut(tier, cause)
}

// scaleOut launches one VM for an already-recorded trigger and audits
// the outcome.
func (f *Framework) scaleOut(tier cluster.Tier, cause string) bool {
	now := f.c.Eng.Now()
	if !f.launch(tier, ScaleOut, cause) {
		f.denies++
		f.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditScaleOutDenied, Tier: tier.String(),
			Cause: cause, Detail: "tier at capacity"})
		return false
	}
	f.actions++
	f.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditScaleOutLaunch, Tier: tier.String(),
		Cause: cause, Detail: "VM launched: preparation period started"})
	return true
}

// ScaleIn implements Actuator: drain and retire one VM, never emptying
// the tier.
func (f *Framework) ScaleIn(tier cluster.Tier, cause string) bool {
	name := ""
	if f.c.ReadyCount(tier) > 1 {
		name = f.c.RemoveVM(tier)
	}
	if name == "" {
		f.denies++
		return false
	}
	f.actions++
	now := f.c.Eng.Now()
	f.w.Forget(name)
	f.log(Event{Time: now, Kind: ScaleIn, Tier: tier, Detail: name})
	f.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditScaleIn, Tier: tier.String(),
		Cause: cause, Detail: name})
	return true
}

// SetAppThreads implements Actuator: clamp and apply a per-server app
// thread-pool setting, ignoring no-op changes.
func (f *Framework) SetAppThreads(n int, cause string) {
	n = clamp(n, f.cfg.MinThreads, f.cfg.MaxThreads)
	if _, cur, _ := f.c.SoftResources(); n != cur {
		f.resize(cluster.App, n, fmt.Sprintf("app threads=%d", n), cause)
	}
}

// SetDBConns implements Actuator: clamp and apply a per-app DB
// connection-pool setting, ignoring no-op changes.
func (f *Framework) SetDBConns(n int, cause string) {
	n = clamp(n, f.cfg.MinConns, f.cfg.MaxConns)
	if _, _, cur := f.c.SoftResources(); n != cur {
		f.resize(cluster.DB, n, fmt.Sprintf("db conns=%d", n), cause)
	}
}

// resize applies one pool setting — the app tier's thread pools, or the
// DB tier's budget as connections per app server — and records it under
// the caller's wording.
func (f *Framework) resize(tier cluster.Tier, n int, detail, cause string) {
	what := "app threads"
	if tier == cluster.DB {
		what = "db conns per app"
		f.c.SetDBConns(n)
	} else {
		f.c.SetAppThreads(n)
	}
	now := f.c.Eng.Now()
	f.log(Event{Time: now, Kind: SoftAdapt, Tier: tier, Detail: detail})
	f.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditPoolResize, Tier: tier.String(),
		Cause: cause, Detail: what, Value: float64(n)})
}

func (f *Framework) log(e Event) { f.events = append(f.events, e) }
