// Package scaling is the control plane: one runtime (Framework) that
// drives one policy (Controller) against one cluster, and every policy the
// repo evaluates.
//
// The runtime is the paper's ConScale pipeline (Fig. 8) expressed once —
// Metric Warehouse collection, the Optimal Concurrency Estimator (Signal),
// the decision tick, and the actuators with their launch/repair
// bookkeeping, decision log, audit trail and telemetry. A policy is
// nothing but a Tick function over Observations.
//
// The three frameworks the paper evaluates (Section IV-V) share one
// threshold engine ("quick start but slow turn off": scale-out fires
// after a short sustained breach, scale-in only after a long quiet
// period) so the comparison isolates soft-resource handling:
//
//   - "ec2": hardware-only threshold auto-scaling (the EC2-AutoScaling
//     baseline) — adds/removes VMs on CPU thresholds, never touches soft
//     resources.
//   - "dcm": the concurrency-aware baseline [Wang et al., TPDS 2018] — the
//     same hardware scaling plus soft-resource reallocation from an
//     offline-trained profile, which goes stale when the runtime
//     environment drifts from the training conditions.
//   - "conscale": the paper's framework — the same hardware scaling plus
//     fast online soft-resource adaption driven by the SCT model over the
//     Metric Warehouse.
//
// Five more families are grounded in the related work:
//
//   - "target-tracking" / "target-tracking-sct": AWS-style
//     target-tracking on tier CPU with out/in cooldowns (the policy
//     shape of ECS/EC2 application auto-scaling); the -sct variant also
//     consumes the SCT signal for soft-resource adaptation.
//   - "step-scaling": AWS step policies — breach-magnitude bands map to
//     step adjustments (+1 VM above High, +2 above the surge band).
//   - "hybrid-mpc": an OptScaler-style hybrid — a seed-deterministic
//     Holt linear forecaster over per-tier demand feeds a proactive
//     capacity plan, corrected each tick by an MPC-like one-step search
//     over candidate actions.
//   - "tabs-token": TABS-style token-based elasticity (Mukherjee &
//     Borst) — scale-out on idle-token depletion, scale-in after a
//     sustained idle timeout.
//
// Every policy is seeded and deterministic: the same seed and trace
// produce an identical decision log on every run.
package scaling

import (
	"fmt"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/sct"
)

// Mode names one of the three paper policies; Mode.String() is a name
// the policy registry resolves.
type Mode int

// The three frameworks.
const (
	EC2 Mode = iota
	DCM
	ConScale
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case EC2:
		return "ec2-autoscaling"
	case DCM:
		return "dcm"
	case ConScale:
		return "conscale"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DCMProfile is the offline-trained soft-resource recommendation the DCM
// baseline applies at every scaling action: a fixed per-server Tomcat
// thread pool and a fixed total DB-tier concurrency budget, both derived
// from a training run under the training-time workload and system state.
type DCMProfile struct {
	AppThreads int // per app server
	DBTotal    int // total DB concurrency budget across the DB tier
}

// Config carries the knobs every policy shares: thresholds, cooldowns,
// loop cadences, SCT settings and soft-resource clamps.
type Config struct {
	// Mode selects the paper policy New attaches; a policy built by
	// registry name ignores it.
	Mode Mode

	// Threshold engine (the EC2-AutoScaling rule: scale when tier CPU
	// exceeds High; paper uses 80%).
	High float64
	// Low is the scale-in threshold: below it for SustainIn checks, a
	// tier releases a VM.
	Low float64
	// CheckEvery is the decision interval (1 s monitoring).
	CheckEvery des.Time
	// SustainOut/SustainIn are the consecutive breaches required before
	// acting — "quick start" (short) vs "slow turn off" (long).
	SustainOut int
	// SustainIn is the consecutive low-CPU checks required to scale in.
	SustainIn int
	// OutCooldown/InCooldown block repeat actions per tier.
	OutCooldown des.Time
	// InCooldown blocks repeated scale-in actions on the same tier.
	InCooldown des.Time

	// SCT estimator settings.
	SCT sct.Config
	// EstimateEvery is how often the Optimal Concurrency Estimator
	// refreshes its cached per-server estimates (asynchronous workflow of
	// Fig. 8).
	EstimateEvery des.Time
	// AdaptEvery is how often ConScale re-applies its soft-resource
	// recommendation outside scaling events, so an improved estimate
	// (e.g. after a system-state change) takes effect without waiting
	// for the next VM action. Negative disables the adapter loop.
	AdaptEvery des.Time

	// DCM profile (DCM only).
	Profile DCMProfile

	// UseQupper makes ConScale recommend the upper bound of the rational
	// range instead of the paper's Qlower — the A2 ablation: same maximum
	// throughput, higher operating latency.
	UseQupper bool

	// SLATarget (seconds), with SLAPercentile and SLAWindow, arms an
	// additional QoS trigger on the paper policies: when the web tier's
	// windowed tail latency exceeds the target for SustainOut consecutive
	// checks, the busiest tier scales out even if no CPU crossed the
	// threshold — catching the under-allocation regime where response
	// times burn while hardware idles (the failure mode of stale
	// soft-resource settings).
	SLATarget float64
	// SLAPercentile is the tail percentile Observation.Tail reports and
	// the QoS trigger watches (default 95).
	SLAPercentile float64
	// SLAWindow is the sliding window the tail latency is measured over
	// (default 10 s).
	SLAWindow des.Time

	// VerticalDBMaxCores enables vertical scaling of the DB tier (the
	// scale-up strategy of paper Section III-C.1): when the DB tier needs
	// more capacity, an existing VM gains a vCPU (up to this limit)
	// before any new VM is added. The SCT model tracks the resulting
	// optimal-concurrency doubling (Fig. 7a/d) online.
	VerticalDBMaxCores int

	// Soft-resource safety clamps.
	MinThreads, MaxThreads int
	// MinConns/MaxConns clamp the DB connection-pool adaptation range.
	MinConns, MaxConns int

	// WarehouseRetention bounds metric history.
	WarehouseRetention des.Time
}

// DefaultConfig returns the evaluation settings shared by all policies.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:               mode,
		High:               0.80,
		Low:                0.30,
		CheckEvery:         des.Second,
		SustainOut:         3,
		SustainIn:          45,
		OutCooldown:        25 * des.Second,
		InCooldown:         60 * des.Second,
		SCT:                sct.DefaultConfig(),
		EstimateEvery:      5 * des.Second,
		AdaptEvery:         15 * des.Second,
		MinThreads:         4,
		MaxThreads:         400,
		MinConns:           2,
		MaxConns:           200,
		WarehouseRetention: 400 * des.Second,
	}
}

// withDefaults fills each zero-valued knob from DefaultConfig, one field
// at a time, so a caller that sets only some fields (a Profile, an SCT
// override, a clamp) keeps them and the zero Config means DefaultConfig.
// It is the only defaulting every constructor applies; SCT is left to
// sct.New, which defaults its own fields the same way.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Mode)
	orDefault(&c.High, d.High)
	orDefault(&c.Low, d.Low)
	orDefault(&c.CheckEvery, d.CheckEvery)
	orDefault(&c.SustainOut, d.SustainOut)
	orDefault(&c.SustainIn, d.SustainIn)
	orDefault(&c.OutCooldown, d.OutCooldown)
	orDefault(&c.InCooldown, d.InCooldown)
	orDefault(&c.EstimateEvery, d.EstimateEvery)
	if c.AdaptEvery == 0 { // negative means "no adapter loop"
		c.AdaptEvery = d.AdaptEvery
	}
	orDefault(&c.SLAPercentile, 95)
	orDefault(&c.SLAWindow, 10*des.Second)
	orDefault(&c.MinThreads, d.MinThreads)
	orDefault(&c.MaxThreads, d.MaxThreads)
	orDefault(&c.MinConns, d.MinConns)
	orDefault(&c.MaxConns, d.MaxConns)
	orDefault(&c.WarehouseRetention, d.WarehouseRetention)
	return c
}

// orDefault replaces a non-positive knob with its default.
func orDefault[T ~int | ~float64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// EventKind labels a scaling-log entry.
type EventKind int

// Event kinds.
const (
	ScaleOut EventKind = iota
	ScaleIn
	SoftAdapt
	// Repair is emitted when the runtime re-provisions a tier whose last
	// VM vanished outside its own actions (a cloud-side crash): the CPU
	// signal of an empty tier reads zero, so the threshold rule alone would
	// leave the tier dark forever.
	Repair
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	case SoftAdapt:
		return "soft-adapt"
	case Repair:
		return "repair"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event records one scaling action for the evaluation timelines.
type Event struct {
	// Time is the simulation instant the action took effect.
	Time des.Time
	// Kind classifies the action (scale-out, scale-in, adaptation...).
	Kind EventKind
	// Tier is the tier the action applied to.
	Tier cluster.Tier
	// Detail is a human-readable summary for audit trails.
	Detail string
}
