package scaling

import (
	"fmt"
	"math"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/trace"
)

// threshold is the paper's shared threshold engine — the EC2-AutoScaling
// rule (scale a tier out when its CPU exceeds High for SustainOut checks,
// in when below Low for SustainIn) plus the optional SLA trigger and
// vertical DB scale-up — with the soft-resource step that tells the
// three paper policies apart: none (EC2), the offline profile (DCM), or
// the online SCT signal (ConScale). The hardware half is one engine so
// the comparison isolates soft-resource handling.
//
// As an in-package native it words its own log and audit records through
// the runtime's primitives (env.rt); custom policies get the same
// bookkeeping through the Actuator.
type threshold struct {
	mode Mode
	cfg  Config
	c    *cluster.Cluster
	rt   *Framework
	sig  *Signal

	above, below    map[cluster.Tier]int
	lastOut, lastIn map[cluster.Tier]des.Time
	slaAbove        int
}

// paperNames are the registry names of the three paper policies.
var paperNames = map[Mode]string{EC2: "ec2", DCM: "dcm", ConScale: "conscale"}

func init() {
	for mode, name := range paperNames {
		mode := mode
		Register(name, func(Options) Controller { return &threshold{mode: mode} })
	}
}

// ParseMode resolves a paper-policy name, spelled any way the registry
// accepts ("ec2", "EC2-AutoScaling", " dcm "), to its Mode.
func ParseMode(name string) (Mode, error) {
	key, err := Canonical(name)
	if err != nil {
		return 0, err
	}
	for mode, paper := range paperNames {
		if paper == key {
			return mode, nil
		}
	}
	return 0, fmt.Errorf("scaling: %q is not a paper policy; available: ec2, dcm, conscale", name)
}

// Name implements Controller.
func (p *threshold) Name() string { return paperNames[p.mode] }

// Init implements Controller.
func (p *threshold) Init(env Env) {
	p.cfg, p.c, p.rt, p.sig = env.Opts.Base, env.Cluster, env.rt, env.Signal
	p.above = make(map[cluster.Tier]int)
	p.below = make(map[cluster.Tier]int)
	p.lastOut = make(map[cluster.Tier]des.Time)
	p.lastIn = make(map[cluster.Tier]des.Time)
	if p.mode == ConScale {
		p.sig.refreshCause = "estimator refresh"
	}
}

// Stop implements Controller.
func (p *threshold) Stop() {}

// Loops implements LoopDeclarer: EC2 and DCM run no estimator (no SCT
// audit records, empty Estimates); ConScale's estimator tick is refresh
// then escape, and its adapter re-applies the recommendation outside
// scaling events.
func (p *threshold) Loops() Loops {
	if p.mode != ConScale {
		return Loops{}
	}
	return Loops{Estimator: true, AfterEstimate: p.escape, Adapt: p.applyConScale}
}

// Tick implements Controller: the threshold rule on the app and DB
// tiers, plus the SLA trigger when configured.
func (p *threshold) Tick(obs *Observation) {
	p.decideTier(cluster.App, obs.App.CPU)
	p.decideTier(cluster.DB, obs.DB.CPU)
	p.decideSLA(obs.Tail)
}

// HardwareChanged implements HardwareObserver: a launch (the policy's
// own or a dark-tier repair) landed.
func (p *threshold) HardwareChanged(tier cluster.Tier) {
	p.lastOut[tier] = p.c.Eng.Now()
	// Quiet ticks counted while the launch was pending (or the tier sat
	// dark) measured a configuration that no longer exists; restart the
	// counter so scale-in needs a full sustained window on the grown
	// tier — otherwise a counter saturated during the preparation period
	// drains the new VM on the first post-ready tick (a launch→drain
	// flap).
	p.below[tier] = 0
	p.afterHardwareScaling()
}

// pending reports a launch in flight on the tier, read live: a trigger
// earlier in the same tick must hold the next one.
func (p *threshold) pending(tier cluster.Tier) bool { return p.rt.pending[tier] > 0 }

// suppress audits a trigger that could not act.
func (p *threshold) suppress(tier cluster.Tier, cause string, value float64) {
	detail := "suppressed: cooldown active"
	if p.pending(tier) {
		detail = "suppressed: scale already pending"
	}
	p.rt.cooldownSkips++
	p.rt.audit.Record(trace.AuditEvent{Time: p.c.Eng.Now(), Kind: trace.AuditCooldownSkip, Tier: tier.String(),
		Cause: cause, Detail: detail, Value: value})
}

func (p *threshold) decideTier(tier cluster.Tier, cpu float64) {
	now := p.c.Eng.Now()
	if cpu > p.cfg.High {
		p.above[tier]++
		p.below[tier] = 0
	} else if cpu < p.cfg.Low {
		p.below[tier]++
		p.above[tier] = 0
	} else {
		p.above[tier] = 0
		p.below[tier] = 0
	}

	if p.above[tier] >= p.cfg.SustainOut {
		cause := fmt.Sprintf("cpu=%.2f > %.2f for %d checks", cpu, p.cfg.High, p.above[tier])
		if !p.pending(tier) && now-p.lastOut[tier] >= p.cfg.OutCooldown {
			p.rt.trigger(tier, cause, cpu)
			p.scaleOut(tier, cause)
			return
		}
		// Audit the suppressed trigger once per episode (the first check
		// on which it would have fired).
		if p.above[tier] == p.cfg.SustainOut {
			p.suppress(tier, cause, cpu)
		}
	}
	if p.below[tier] >= p.cfg.SustainIn &&
		!p.pending(tier) &&
		now-p.lastIn[tier] >= p.cfg.InCooldown &&
		p.c.ReadyCount(tier) > 1 &&
		p.rt.ScaleIn(tier, fmt.Sprintf("cpu < %.2f for %d checks", p.cfg.Low, p.cfg.SustainIn)) {
		p.lastIn[tier] = now
		p.above[tier], p.below[tier] = 0, 0
		p.afterHardwareScaling()
	}
}

// decideSLA scales the busiest tier when the web tier's windowed tail
// breaches the target.
func (p *threshold) decideSLA(tail float64) {
	if p.cfg.SLATarget <= 0 || math.IsNaN(tail) {
		return
	}
	if tail <= p.cfg.SLATarget {
		p.slaAbove = 0
		return
	}
	p.slaAbove++
	if p.slaAbove < p.cfg.SustainOut {
		return
	}
	// Scale the busiest tier, unless it is already scaling or cooling
	// down. Read live: this tick's threshold rule may have just acted.
	now := p.c.Eng.Now()
	tier := cluster.App
	if p.c.TierCPU(cluster.DB) > p.c.TierCPU(cluster.App) {
		tier = cluster.DB
	}
	cause := fmt.Sprintf("sla trigger: p%.0f=%.0fms > %.0fms", p.cfg.SLAPercentile, tail*1000, p.cfg.SLATarget*1000)
	if p.pending(tier) || now-p.lastOut[tier] < p.cfg.OutCooldown {
		if p.slaAbove == p.cfg.SustainOut {
			p.suppress(tier, cause, tail)
		}
		return
	}
	p.slaAbove = 0
	p.rt.log(Event{Time: now, Kind: ScaleOut, Tier: tier, Detail: cause})
	p.rt.trigger(tier, cause, tail)
	p.scaleOut(tier, cause)
}

// scaleOut grows the tier for an already-recorded trigger.
func (p *threshold) scaleOut(tier cluster.Tier, cause string) {
	now := p.c.Eng.Now()
	// Vertical scaling first, when enabled for the DB tier: adding a
	// vCPU to a live VM needs no data replication or preparation period.
	if tier == cluster.DB && p.cfg.VerticalDBMaxCores > 0 {
		for _, srv := range p.c.Servers(cluster.DB) {
			if srv.Draining() || srv.Cores() >= p.cfg.VerticalDBMaxCores {
				continue
			}
			srv.SetCores(srv.Cores() + 1)
			p.lastOut[tier] = now
			p.above[tier] = 0
			p.rt.log(Event{Time: now, Kind: ScaleOut, Tier: tier,
				Detail: fmt.Sprintf("scale-up %s to %d cores", srv.Name(), srv.Cores())})
			p.rt.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditScaleUp, Tier: tier.String(),
				Cause: cause, Detail: srv.Name(), Value: float64(srv.Cores())})
			p.afterHardwareScaling()
			return
		}
	}
	if !p.rt.scaleOut(tier, cause) {
		p.lastOut[tier] = now // tier at capacity: back off instead of retrying every tick
		return
	}
	p.above[tier] = 0
}

// afterHardwareScaling is the second step of a scaling activity: DCM and
// ConScale adapt soft resources; EC2 does nothing.
func (p *threshold) afterHardwareScaling() {
	switch p.mode {
	case DCM:
		p.applyDCM()
	case ConScale:
		p.applyConScale()
	}
}

// applyDCM installs the offline-trained profile: fixed per-server app
// threads, DB budget split across app servers.
func (p *threshold) applyDCM() {
	now := p.c.Eng.Now()
	prof := p.cfg.Profile
	apps := p.c.ReadyCount(cluster.App)
	if prof.AppThreads <= 0 || prof.DBTotal <= 0 || apps == 0 {
		return
	}
	perApp := clamp(ceilDiv(prof.DBTotal, apps), p.cfg.MinConns, p.cfg.MaxConns)
	threads := clamp(prof.AppThreads, p.cfg.MinThreads, p.cfg.MaxThreads)
	p.c.SetAppThreads(threads)
	p.c.SetDBConns(perApp)
	p.rt.log(Event{Time: now, Kind: SoftAdapt, Tier: cluster.App,
		Detail: fmt.Sprintf("dcm profile: threads=%d dbconns=%d", threads, perApp)})
	p.rt.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditPoolResize, Tier: cluster.App.String(),
		Cause: "dcm offline profile", Detail: "app threads", Value: float64(threads)})
	p.rt.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditPoolResize, Tier: cluster.DB.String(),
		Cause: "dcm offline profile", Detail: "db conns per app", Value: float64(perApp)})
}

// escape applies the under-allocation escape to the cluster as it stands
// now — ConScale runs it after every estimator refresh.
func (p *threshold) escape() { p.sig.widen(p.rt.observe(), p) }

// applyConScale turns fresh SCT estimates into soft-resource settings:
// refresh, escape, then size the pools from the post-escape view.
func (p *threshold) applyConScale() {
	p.sig.refresh()
	p.escape()
	p.sig.size(p.rt.observe(), p)
}

// sized implements poolWriter in ConScale's wording. Unlike the
// Actuator's setters it records re-applying an unchanged setting too.
func (p *threshold) sized(tier cluster.Tier, n, optimal int, saturated bool) {
	if tier == cluster.App {
		p.rt.resize(tier, n, fmt.Sprintf("sct: app threads=%d", n),
			fmt.Sprintf("sct optimal=%d saturated=%v", optimal, saturated))
	} else {
		p.rt.resize(tier, n, fmt.Sprintf("sct: db optimal=%d/server -> conns=%d/app", optimal, n),
			fmt.Sprintf("sct optimal=%d/server saturated=%v", optimal, saturated))
	}
}

// widened implements poolWriter in ConScale's wording.
func (p *threshold) widened(tier cluster.Tier, from, to int, cause string) {
	what := "app threads"
	if tier == cluster.DB {
		what = "db conns"
	}
	p.rt.resize(tier, to, fmt.Sprintf("under-allocation escape: %s %d->%d", what, from, to), cause)
}
