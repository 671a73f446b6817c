package trace

import (
	"fmt"
	"sync/atomic"

	"conscale/internal/des"
)

// AuditKind labels one Decision Controller action class.
type AuditKind uint8

// The audited controller actions. Every scaling, estimation, pool, and
// repair decision lands here with its cause, on the same simulated clock
// as the request spans, so latency episodes can be lined up against the
// decisions that caused or cured them.
const (
	// AuditThresholdTrigger fires when a sustained CPU breach (or SLA tail
	// breach) arms a scale-out.
	AuditThresholdTrigger AuditKind = iota
	// AuditCooldownSkip records a trigger that was suppressed by a pending
	// scale or an active cooldown.
	AuditCooldownSkip
	// AuditScaleOutLaunch marks a VM launch (preparation period starts).
	AuditScaleOutLaunch
	// AuditScaleOutReady marks the launched VM entering service.
	AuditScaleOutReady
	// AuditScaleOutDenied marks a launch refused at tier capacity.
	AuditScaleOutDenied
	// AuditScaleUp marks vertical scaling (a live VM gained a vCPU).
	AuditScaleUp
	// AuditScaleIn marks a VM retirement.
	AuditScaleIn
	// AuditPoolResize marks a soft-resource actuation (thread pool or
	// connection pool); Value carries the new setting.
	AuditPoolResize
	// AuditSCTEstimate records one refreshed per-server SCT estimate with
	// its rational range [Qlower, Qupper].
	AuditSCTEstimate
	// AuditRepair marks the dark-tier repair path re-provisioning a tier
	// emptied by external faults.
	AuditRepair
	// AuditFault records a chaos fault activation (the disturbance the
	// controller is reacting to).
	AuditFault
	// AuditSLOAlert marks an SLO burn-rate alert raising: both burn
	// windows crossed the threshold (Value carries the fast-window burn).
	AuditSLOAlert
	// AuditSLOClear marks the alert clearing (fast-window burn back under
	// the threshold).
	AuditSLOClear
	// AuditTwinDrift marks the analytical twin flagging sustained
	// model/measurement divergence (Value carries the RT relative error
	// at the crossing; Cause classifies it against forensics episodes).
	AuditTwinDrift
	// AuditTwinClear marks the twin's drift flag clearing (Value carries
	// the episode's worst relative error).
	AuditTwinClear
)

// String implements fmt.Stringer.
func (k AuditKind) String() string {
	switch k {
	case AuditThresholdTrigger:
		return "threshold-trigger"
	case AuditCooldownSkip:
		return "cooldown-skip"
	case AuditScaleOutLaunch:
		return "scale-out-launch"
	case AuditScaleOutReady:
		return "scale-out-ready"
	case AuditScaleOutDenied:
		return "scale-out-denied"
	case AuditScaleUp:
		return "scale-up"
	case AuditScaleIn:
		return "scale-in"
	case AuditPoolResize:
		return "pool-resize"
	case AuditSCTEstimate:
		return "sct-estimate"
	case AuditRepair:
		return "repair"
	case AuditFault:
		return "fault"
	case AuditSLOAlert:
		return "slo-alert"
	case AuditSLOClear:
		return "slo-clear"
	case AuditTwinDrift:
		return "twin-drift"
	case AuditTwinClear:
		return "twin-clear"
	default:
		return "audit?"
	}
}

// AuditEvent is one annotated controller action.
type AuditEvent struct {
	Time des.Time
	Kind AuditKind
	// Tier names the acted-on tier ("tomcat", "mysql", ...).
	Tier string
	// Cause explains why the controller acted (the trigger condition).
	Cause string
	// Detail names what was acted on (server name, setting transition).
	Detail string
	// Qlower/Qupper carry the rational range of AuditSCTEstimate events.
	Qlower, Qupper int
	// Value carries the event's scalar: triggering CPU, new pool size,
	// new core count, or estimated plateau throughput, per Kind.
	Value float64
}

// String renders the event for logs.
func (e AuditEvent) String() string {
	s := fmt.Sprintf("[%7.1fs] %-17s %-9s", float64(e.Time), e.Kind, e.Tier)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	if e.Cause != "" {
		s += " (" + e.Cause + ")"
	}
	return s
}

// Audit is the append-only controller decision trail. Record runs on the
// simulation goroutine; the event counter is an atomic so Len may be
// polled from any goroutine. A nil *Audit is a valid, inert receiver.
type Audit struct {
	count    atomic.Uint64
	events   []AuditEvent
	observer func(AuditEvent)
}

// NewAudit returns an empty trail.
func NewAudit() *Audit { return &Audit{} }

// SetObserver installs a tap called synchronously from Record with every
// event that lands on the trail (simulation goroutine only — set it
// before the run starts). The forensics flight recorder uses this to see
// decisions, faults, and SCT estimates live without polling; the observer
// must only read, never schedule or draw randomness.
func (a *Audit) SetObserver(fn func(AuditEvent)) {
	if a != nil {
		a.observer = fn
	}
}

// Record appends one event (no-op when nil).
func (a *Audit) Record(e AuditEvent) {
	if a == nil {
		return
	}
	a.events = append(a.events, e)
	a.count.Add(1)
	if a.observer != nil {
		a.observer(e)
	}
}

// Len returns the recorded event count (safe from any goroutine).
func (a *Audit) Len() int {
	if a == nil {
		return 0
	}
	return int(a.count.Load())
}

// Events returns a copy of the trail (simulation goroutine only).
func (a *Audit) Events() []AuditEvent {
	if a == nil {
		return nil
	}
	out := make([]AuditEvent, len(a.events))
	copy(out, a.events)
	return out
}
