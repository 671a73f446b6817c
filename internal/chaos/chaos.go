// Package chaos injects cloud faults into the simulated n-tier system:
// VM crashes, noisy-neighbor CPU interference, inter-tier network jitter,
// and slow-booting stragglers. The paper's premise is that clouds cause
// large response-time fluctuations; bursty traffic is only one source.
// This package supplies the others, so the scaling frameworks can be
// evaluated under the conditions where offline knowledge goes stale and
// online adaption has to earn its keep.
//
// Everything is deterministic: a Schedule is a plain list of typed fault
// events, and an Injector arms it on the DES engine with its own seeded
// random stream. The same (seed, schedule) always produces the same fault
// timeline, and an empty schedule consumes no randomness and schedules no
// events, so a run with an empty schedule is bit-identical to a run with
// no injector at all.
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/rng"
	"conscale/internal/trace"
)

// Kind enumerates the fault types.
type Kind int

// The fault types.
const (
	// VMCrash abruptly terminates a VM (server.Kill semantics: queued and
	// in-flight requests fail, the balancer stops routing immediately).
	VMCrash Kind = iota
	// CPUInterference multiplies the CPU-burst durations of the targeted
	// VMs for the window — co-located tenants stealing host cycles.
	CPUInterference
	// NetDelay adds latency to the RPC edge into a tier for the window.
	NetDelay
	// SlowBoot multiplies the VM preparation period for boots started
	// inside the window — stragglers from a congested image store.
	SlowBoot
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case VMCrash:
		return "vm-crash"
	case CPUInterference:
		return "cpu-interference"
	case NetDelay:
		return "net-delay"
	case SlowBoot:
		return "slow-boot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Target selectors for Fault.Index.
const (
	// PickRandom draws the target VM uniformly from the tier's ready set
	// at activation time, using the injector's own random stream.
	PickRandom = -1
	// WholeTier targets every ready VM of the tier.
	WholeTier = -2
)

// Fault is one scheduled fault event. At is when it activates; Duration
// is how long windowed faults (interference, delay, slow boot) stay in
// effect — a crash is instantaneous and ignores it.
type Fault struct {
	Kind     Kind
	At       des.Time
	Duration des.Time

	// Tier is the targeted tier (crash, interference: the tier whose VMs
	// are hit; delay: the RPC edge *into* this tier). SlowBoot is global.
	Tier cluster.Tier

	// Index selects the VM within the tier for crash/interference faults:
	// a 0-based position in boot order, or PickRandom / WholeTier.
	Index int

	// Factor is the multiplier for CPUInterference (burst durations) and
	// SlowBoot (preparation period).
	Factor float64

	// Delay is the added per-call latency for NetDelay.
	Delay des.Time
}

// Crash returns a VM-crash fault.
func Crash(at des.Time, tier cluster.Tier, index int) Fault {
	return Fault{Kind: VMCrash, At: at, Tier: tier, Index: index}
}

// Interference returns a noisy-neighbor window: the targeted VMs' CPU
// bursts take slowdown times their nominal duration for dur.
func Interference(at, dur des.Time, tier cluster.Tier, index int, slowdown float64) Fault {
	return Fault{Kind: CPUInterference, At: at, Duration: dur, Tier: tier, Index: index, Factor: slowdown}
}

// Jitter returns a network-delay window on the RPC edge into tier.
func Jitter(at, dur des.Time, tier cluster.Tier, delay des.Time) Fault {
	return Fault{Kind: NetDelay, At: at, Duration: dur, Tier: tier, Delay: delay}
}

// Stragglers returns a slow-boot window: VM boots started inside it take
// factor times the nominal preparation period.
func Stragglers(at, dur des.Time, factor float64) Fault {
	return Fault{Kind: SlowBoot, At: at, Duration: dur, Factor: factor}
}

// Schedule is an ordered collection of fault events. The zero value is an
// empty schedule; arming it is a no-op.
type Schedule struct {
	faults []Fault
}

// NewSchedule builds a schedule from the given faults.
func NewSchedule(faults ...Fault) *Schedule {
	s := &Schedule{}
	s.Add(faults...)
	return s
}

// Add appends faults to the schedule.
func (s *Schedule) Add(faults ...Fault) { s.faults = append(s.faults, faults...) }

// Len returns the number of scheduled faults.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.faults)
}

// Faults returns the events sorted by activation time (stable, so equal
// times keep insertion order).
func (s *Schedule) Faults() []Fault {
	if s == nil {
		return nil
	}
	out := make([]Fault, len(s.faults))
	copy(out, s.faults)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Window records one activated fault for timeline overlays: when it was
// in effect and what it actually hit (resolved at activation time, after
// random draws).
type Window struct {
	Fault  Fault
	Start  des.Time
	End    des.Time
	Target string
}

// Overlaps reports whether the fault window intersects the half-open
// interval [start, end). Instantaneous windows (crashes, Start == End)
// count as overlapping when their instant falls inside the interval —
// the crash's effect outlives its zero-length window, which is the
// forensics layer's business to model with a lag.
func (w Window) Overlaps(start, end des.Time) bool {
	if w.Start == w.End {
		return w.Start >= start && w.Start < end
	}
	return w.Start < end && w.End > start
}

// String renders the window for logs and tables.
func (w Window) String() string {
	switch w.Fault.Kind {
	case VMCrash:
		return fmt.Sprintf("[%6.1fs] crash %s", float64(w.Start), w.Target)
	case CPUInterference:
		return fmt.Sprintf("[%6.1f-%.1fs] interference x%.1f on %s", float64(w.Start), float64(w.End), w.Fault.Factor, w.Target)
	case NetDelay:
		return fmt.Sprintf("[%6.1f-%.1fs] +%.0fms on edge ->%s", float64(w.Start), float64(w.End), float64(w.Fault.Delay)*1000, w.Fault.Tier)
	case SlowBoot:
		return fmt.Sprintf("[%6.1f-%.1fs] boots x%.1f slower", float64(w.Start), float64(w.End), w.Fault.Factor)
	default:
		return fmt.Sprintf("[%6.1fs] %s", float64(w.Start), w.Fault.Kind)
	}
}

// Injector arms a schedule on a cluster's DES engine. It owns a dedicated
// random stream so target draws are reproducible and independent of the
// cluster's own randomness.
type Injector struct {
	c     *cluster.Cluster
	sched *Schedule
	rnd   *rng.Source

	windows    []Window
	onActivate func(Window)
	audit      *trace.Audit
}

// NewInjector couples a schedule to a cluster. seed feeds the injector's
// private random stream (used only for PickRandom draws).
func NewInjector(c *cluster.Cluster, sched *Schedule, seed uint64) *Injector {
	return &Injector{c: c, sched: sched, rnd: rng.New(seed)}
}

// OnActivate registers a callback fired at each fault activation (after
// the fault takes effect), for live overlays and logging.
func (in *Injector) OnActivate(fn func(Window)) { in.onActivate = fn }

// SetAudit mirrors every fault activation into a controller audit trail,
// so scaling decisions can be read against the disturbances that provoked
// them (nil detaches).
func (in *Injector) SetAudit(a *trace.Audit) { in.audit = a }

// Windows returns the faults activated so far, with resolved targets, in
// activation order.
func (in *Injector) Windows() []Window {
	out := make([]Window, len(in.windows))
	copy(out, in.windows)
	return out
}

// Arm schedules every fault on the engine. Call once, before the run
// starts (faults must not be in the past). An empty schedule schedules
// nothing.
func (in *Injector) Arm() {
	for _, f := range in.sched.Faults() {
		f := f
		in.c.Eng.At(f.At, func() { in.activate(f) })
	}
}

// activate applies one fault at its scheduled time.
func (in *Injector) activate(f Fault) {
	switch f.Kind {
	case VMCrash:
		in.crash(f)
	case CPUInterference:
		in.interfere(f)
	case NetDelay:
		in.delay(f)
	case SlowBoot:
		in.slowBoot(f)
	default:
		panic(fmt.Sprintf("chaos: unknown fault kind %d", int(f.Kind)))
	}
}

// record stores the window and notifies the activation callback.
func (in *Injector) record(w Window) {
	in.windows = append(in.windows, w)
	in.audit.Record(trace.AuditEvent{
		Time:   w.Start,
		Kind:   trace.AuditFault,
		Tier:   w.Fault.Tier.String(),
		Cause:  w.Fault.Kind.String(),
		Detail: w.Target,
		Value:  float64(w.End - w.Start),
	})
	if in.onActivate != nil {
		in.onActivate(w)
	}
}

func (in *Injector) crash(f Fault) {
	var killed []string
	switch f.Index {
	case WholeTier:
		for {
			name := in.c.KillVMIndex(f.Tier, 0)
			if name == "" {
				break
			}
			killed = append(killed, name)
		}
	case PickRandom:
		if n := len(in.c.ReadyServers(f.Tier)); n > 0 {
			if name := in.c.KillVMIndex(f.Tier, in.rnd.Intn(n)); name != "" {
				killed = append(killed, name)
			}
		}
	default:
		if name := in.c.KillVMIndex(f.Tier, f.Index); name != "" {
			killed = append(killed, name)
		}
	}
	if len(killed) == 0 {
		return // nothing to hit: no window
	}
	now := in.c.Eng.Now()
	in.record(Window{Fault: f, Start: now, End: now, Target: strings.Join(killed, ",")})
}

func (in *Injector) interfere(f Fault) {
	ready := in.c.ReadyServers(f.Tier)
	targets := ready
	switch {
	case f.Index == PickRandom:
		if len(ready) == 0 {
			return
		}
		i := in.rnd.Intn(len(ready))
		targets = ready[i : i+1]
	case f.Index >= 0:
		if f.Index >= len(ready) {
			return
		}
		targets = ready[f.Index : f.Index+1]
	}
	if len(targets) == 0 {
		return
	}
	names := make([]string, len(targets))
	for i, srv := range targets {
		srv := srv
		names[i] = srv.Name()
		srv.SetCPUSlowdown(srv.CPUSlowdown() * f.Factor)
		// Restore multiplicatively so overlapping windows compose; a
		// killed server's factor is inert, so restoring it is harmless.
		in.c.Eng.After(f.Duration, func() { srv.SetCPUSlowdown(srv.CPUSlowdown() / f.Factor) })
	}
	now := in.c.Eng.Now()
	in.record(Window{Fault: f, Start: now, End: now + f.Duration, Target: strings.Join(names, ",")})
}

func (in *Injector) delay(f Fault) {
	// Additive set/clear so overlapping windows on the same edge compose.
	in.c.SetNetDelay(f.Tier, in.c.NetDelay(f.Tier)+f.Delay)
	in.c.Eng.After(f.Duration, func() {
		in.c.SetNetDelay(f.Tier, in.c.NetDelay(f.Tier)-f.Delay)
	})
	now := in.c.Eng.Now()
	in.record(Window{Fault: f, Start: now, End: now + f.Duration, Target: "edge->" + f.Tier.String()})
}

func (in *Injector) slowBoot(f Fault) {
	in.c.SetBootFactor(in.c.BootFactor() * f.Factor)
	in.c.Eng.After(f.Duration, func() {
		in.c.SetBootFactor(in.c.BootFactor() / f.Factor)
	})
	now := in.c.Eng.Now()
	in.record(Window{Fault: f, Start: now, End: now + f.Duration, Target: "vm-boot"})
}
