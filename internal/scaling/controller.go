package scaling

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"conscale/internal/cluster"
	"conscale/internal/des"
)

// Controller is one scaling policy. The Framework drives it: Init is
// called once before simulation events fire, Tick on every decision
// interval with a fresh Observation, and Stop when the run ends.
//
// Controllers act only through env.Act (never by mutating the cluster
// directly), must not retain the Observation past the tick, and must
// draw any randomness from a source seeded by Options.Seed so a run's
// decision log is a pure function of (seed, trace, config).
//
// A policy that needs more than the decision tick also implements
// LoopDeclarer and/or HardwareObserver.
type Controller interface {
	// Name returns the registry name of the controller.
	Name() string
	// Init attaches the controller to its runtime environment. It runs
	// before the first simulation event fires.
	Init(env Env)
	// Tick observes the cluster once per decision interval and may act
	// through the environment's Actuator.
	Tick(obs *Observation)
	// Stop releases any resources when the run ends.
	Stop()
}

// Loops declares which control loops the Framework arms for a policy
// besides the metric collector and the decision tick. Which loops a
// policy gets is a property of the policy, not a user option, and the
// arm order is fixed — collector, decider, estimator, adapter — because
// the engine breaks same-instant ties by arm order: a 5 s estimator
// armed at t=0 fires before the 1 s decider re-armed at t=4, and a
// trajectory depends on which of two same-instant loops ran first.
type Loops struct {
	// Estimator arms the SCT signal refresh every Config.EstimateEvery.
	Estimator bool
	// AfterEstimate, if set, runs right after each estimator refresh.
	AfterEstimate func()
	// Adapt, if set, runs every Config.AdaptEvery (when positive).
	Adapt func()
}

// LoopDeclarer is implemented by a policy whose loops differ from the
// default Loops{Estimator: true}.
type LoopDeclarer interface {
	// Loops returns the policy's loop declaration. The Framework reads
	// it once, after Init.
	Loops() Loops
}

// HardwareObserver is implemented by a policy that reacts the instant a
// VM launch lands on a tier — a scale-out it asked for or a dark-tier
// repair the Framework started. The hook runs inside the cluster's
// ready callback, after the Framework logged and audited the event, so
// a policy can restart its quiet counters, stamp its cooldown, and
// re-apply soft resources to the grown tier.
type HardwareObserver interface {
	// HardwareChanged reports that a new VM entered service on the tier.
	HardwareChanged(tier cluster.Tier)
}

// Env is everything a controller may touch: the cluster (read-only
// inspection), the Actuator (all mutations), the shared SCT signal, and
// the options it was built with.
type Env struct {
	// Cluster is the controlled cluster, for read-only inspection beyond
	// what Observation carries.
	Cluster *cluster.Cluster
	// Act is the only mutation path: scale and pool actions flow through
	// it so the decision log and audit trail see every action.
	Act Actuator
	// Signal is the shared SCT concurrency-range estimator.
	Signal *Signal
	// Opts echoes the Options the runtime was attached with, defaults
	// filled.
	Opts Options

	// rt gives the in-package paper policies the runtime's primitives
	// (launch, resize, log, audit) whose wording they own.
	rt *Framework
}

// Actuator is the action surface the Framework exposes to controllers.
// Scale actions return false when refused (tier at capacity, or last
// VM); pool setters clamp to the configured range and ignore no-op
// changes.
type Actuator interface {
	// ScaleOut launches one VM on the tier. The cause string lands in
	// the decision log and audit trail.
	ScaleOut(tier cluster.Tier, cause string) bool
	// ScaleIn drains and retires one VM, refusing to empty the tier.
	ScaleIn(tier cluster.Tier, cause string) bool
	// SetAppThreads resizes every app server's thread pool.
	SetAppThreads(n int, cause string)
	// SetDBConns resizes every app server's DB connection pool.
	SetDBConns(n int, cause string)
}

// TierState is the per-tier slice of an Observation.
type TierState struct {
	// CPU is the tier's mean CPU utilization (0..1).
	CPU float64
	// Disk is the highest per-server disk utilization (DB tier).
	Disk float64
	// MinCPU / MaxCPU are the per-server utilization extremes.
	MinCPU, MaxCPU float64
	// Idle counts servers under 10% CPU — the free tokens of a
	// token-based policy.
	Idle int
	// Ready is the in-service VM count.
	Ready int
	// Pending reports a launch in flight (boot not finished).
	Pending bool
	// Queue is the summed accept-queue length across the tier.
	Queue int
	// PoolWaiting counts callers blocked waiting for this tier's
	// connection pools (DB tier: app threads waiting for a connection).
	PoolWaiting int
}

// TierEstimate is the tier-aggregated SCT signal: the mean optimal
// concurrency across the tier's per-server estimates.
type TierEstimate struct {
	// Optimal is the recommended per-server concurrency setting.
	Optimal int
	// Saturated reports whether a majority of contributing estimates
	// witnessed the curve's descending stage (safe to tighten).
	Saturated bool
	// OK reports whether any fresh estimate contributed.
	OK bool
}

// Observation is the per-tick view the Framework hands to Tick.
type Observation struct {
	// Now is the simulation time of the tick.
	Now des.Time
	// App and DB describe the scalable tiers.
	App, DB TierState
	// Tail is the windowed web-tier tail response time in seconds (the
	// client-visible SLO proxy; Config.SLAPercentile over
	// Config.SLAWindow); NaN while the window is empty.
	Tail float64
	// AppSCT / DBSCT carry the tier-aggregated SCT concurrency signal
	// (zero-valued with OK=false when the signal is dark).
	AppSCT, DBSCT TierEstimate
	// Threads / Conns are the current soft-resource settings.
	Threads, Conns int
}

// Options parameterizes controller construction. Base supplies the
// shared knobs every family reads (thresholds, cooldowns, soft-resource
// clamps, SCT settings); Seed feeds any controller-internal randomness.
type Options struct {
	// Seed is the run seed; deterministic controllers derive any random
	// stream from it.
	Seed uint64
	// Base carries the shared scaling knobs (thresholds, cooldowns,
	// clamps, SCT config); zero-valued fields take DefaultConfig's.
	Base Config
}

// Factory builds one controller instance from options.
type Factory func(opts Options) Controller

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a controller family under a unique name. It panics on a
// duplicate: registration happens at init time and a collision is a
// programming error.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" || f == nil {
		panic("scaling: Register with empty name or nil factory")
	}
	if _, dup := registry[key]; dup {
		panic("scaling: duplicate registration of " + key)
	}
	registry[key] = f
}

// aliases maps accepted spellings to registry names.
var aliases = map[string]string{
	"ec2-autoscaling": "ec2", // Mode.String() of the EC2 baseline
	"tabs":            "tabs-token",
}

// Canonical resolves a controller name the way the registry does —
// case-insensitive, trimmed, "ec2-autoscaling" and "tabs" accepted as
// aliases — and returns the registry name. The error names every
// registered controller.
func Canonical(name string) (string, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	regMu.RLock()
	_, ok := registry[key]
	regMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("scaling: unknown controller %q; registered: %s",
			name, strings.Join(Names(), ", "))
	}
	return key, nil
}

// NewController builds a registered controller by name (resolved as by
// Canonical).
func NewController(name string, opts Options) (Controller, error) {
	key, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	regMu.RLock()
	f := registry[key]
	regMu.RUnlock()
	opts.Base = opts.Base.withDefaults()
	return f(opts), nil
}

// Names returns every registered controller name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
