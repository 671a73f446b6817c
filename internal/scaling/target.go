package scaling

import (
	"fmt"
	"math"

	"conscale/internal/cluster"
	"conscale/internal/des"
)

// scalableTiers is the tier order every policy walks each tick.
var scalableTiers = []cluster.Tier{cluster.App, cluster.DB}

// TargetTracking is the AWS-style target-tracking policy: each tick it
// computes the capacity that would bring tier CPU back to the target
// setpoint (desired = ceil(ready × cpu / target), the application
// auto-scaling formula) and scales toward it, out aggressively and in
// conservatively — scale-in waits for a sustained quiet period and its
// own longer cooldown, the "quick start but slow turn off" shape shared
// with the paper's threshold engine.
//
// With UseSCT it additionally consumes the composable SCT signal for
// soft-resource pool sizing, demonstrating that the concurrency-range
// estimate composes with policies the paper never evaluated.
type TargetTracking struct {
	// Target is the CPU setpoint (default 0.65).
	Target float64
	// InMargin scales the setpoint for the scale-in band: capacity is
	// released only while cpu < Target×InMargin (default 0.9) sustained.
	InMargin float64
	// SustainIn is the consecutive quiet checks before scale-in.
	SustainIn int
	// OutCooldown / InCooldown block repeat actions per tier.
	OutCooldown, InCooldown des.Time
	// UseSCT arms SCT-driven pool adaptation (the -sct variant).
	UseSCT bool

	env     Env
	lastOut map[cluster.Tier]des.Time
	lastIn  map[cluster.Tier]des.Time
	below   map[cluster.Tier]int
}

func init() {
	Register("target-tracking", func(opts Options) Controller {
		return newTargetTracking(opts, false)
	})
	Register("target-tracking-sct", func(opts Options) Controller {
		return newTargetTracking(opts, true)
	})
}

func newTargetTracking(opts Options, useSCT bool) *TargetTracking {
	return &TargetTracking{
		Target:      0.65,
		InMargin:    0.9,
		SustainIn:   opts.Base.SustainIn,
		OutCooldown: opts.Base.OutCooldown,
		InCooldown:  opts.Base.InCooldown,
		UseSCT:      useSCT,
	}
}

// Name implements Controller.
func (t *TargetTracking) Name() string {
	if t.UseSCT {
		return "target-tracking-sct"
	}
	return "target-tracking"
}

// Init implements Controller.
func (t *TargetTracking) Init(env Env) {
	t.env = env
	t.lastOut = make(map[cluster.Tier]des.Time)
	t.lastIn = make(map[cluster.Tier]des.Time)
	t.below = make(map[cluster.Tier]int)
}

// Stop implements Controller.
func (t *TargetTracking) Stop() {}

// Tick implements Controller.
func (t *TargetTracking) Tick(obs *Observation) {
	if t.UseSCT {
		t.env.Signal.ApplyPools(t.env.Act, obs)
	}
	for _, tier := range scalableTiers {
		st := obs.App
		if tier == cluster.DB {
			st = obs.DB
		}
		if st.Ready == 0 {
			continue
		}
		desired := int(math.Ceil(float64(st.Ready) * st.CPU / t.Target))
		if desired > st.Ready {
			if st.Pending || obs.Now-t.lastOut[tier] < t.OutCooldown {
				continue
			}
			cause := fmt.Sprintf("target-tracking: cpu=%.2f > target=%.2f, desired=%d ready=%d",
				st.CPU, t.Target, desired, st.Ready)
			if t.env.Act.ScaleOut(tier, cause) {
				t.lastOut[tier] = obs.Now
				t.below[tier] = 0
			}
			continue
		}
		if desired < st.Ready && st.CPU < t.Target*t.InMargin {
			t.below[tier]++
		} else {
			t.below[tier] = 0
		}
		if t.below[tier] >= t.SustainIn && st.Ready > 1 && !st.Pending &&
			obs.Now-t.lastIn[tier] >= t.InCooldown && obs.Now-t.lastOut[tier] >= t.InCooldown {
			cause := fmt.Sprintf("target-tracking: cpu=%.2f < %.2f for %d checks, desired=%d ready=%d",
				st.CPU, t.Target*t.InMargin, t.below[tier], desired, st.Ready)
			if t.env.Act.ScaleIn(tier, cause) {
				t.lastIn[tier] = obs.Now
				t.below[tier] = 0
			}
		}
	}
}

// StepScaling is the AWS step-scaling policy shape: breach-magnitude
// bands map to step adjustments — one VM above the High threshold, two
// in the surge band — while scale-in releases one VM after a long
// sustained quiet period. Both directions honor per-tier cooldowns; the
// surge band may burst two launches in one tick (the Framework tracks
// multiple in-flight launches).
type StepScaling struct {
	// High / Surge / Low bound the bands: +1 VM in [High, Surge),
	// +2 VMs at ≥ Surge, -1 VM below Low.
	High, Surge, Low float64
	// SustainOut / SustainIn are the consecutive breaches required
	// before acting.
	SustainOut, SustainIn int
	// OutCooldown / InCooldown block repeat actions per tier.
	OutCooldown, InCooldown des.Time

	env     Env
	above   map[cluster.Tier]int
	below   map[cluster.Tier]int
	lastOut map[cluster.Tier]des.Time
	lastIn  map[cluster.Tier]des.Time
}

func init() {
	Register("step-scaling", func(opts Options) Controller {
		return &StepScaling{
			High:        opts.Base.High,
			Surge:       0.90,
			Low:         opts.Base.Low,
			SustainOut:  opts.Base.SustainOut,
			SustainIn:   opts.Base.SustainIn,
			OutCooldown: opts.Base.OutCooldown,
			InCooldown:  opts.Base.InCooldown,
		}
	})
}

// Name implements Controller.
func (s *StepScaling) Name() string { return "step-scaling" }

// Init implements Controller.
func (s *StepScaling) Init(env Env) {
	s.env = env
	s.above = make(map[cluster.Tier]int)
	s.below = make(map[cluster.Tier]int)
	s.lastOut = make(map[cluster.Tier]des.Time)
	s.lastIn = make(map[cluster.Tier]des.Time)
}

// Stop implements Controller.
func (s *StepScaling) Stop() {}

// Tick implements Controller.
func (s *StepScaling) Tick(obs *Observation) {
	for _, tier := range scalableTiers {
		st := obs.App
		if tier == cluster.DB {
			st = obs.DB
		}
		switch {
		case st.CPU > s.High:
			s.above[tier]++
			s.below[tier] = 0
		case st.CPU < s.Low:
			s.below[tier]++
			s.above[tier] = 0
		default:
			s.above[tier], s.below[tier] = 0, 0
		}
		if s.above[tier] >= s.SustainOut && !st.Pending && obs.Now-s.lastOut[tier] >= s.OutCooldown {
			steps := 1
			if st.CPU >= s.Surge {
				steps = 2
			}
			cause := fmt.Sprintf("step-scaling: cpu=%.2f for %d checks, step=+%d", st.CPU, s.above[tier], steps)
			fired := false
			for i := 0; i < steps; i++ {
				if s.env.Act.ScaleOut(tier, cause) {
					fired = true
				}
			}
			if fired {
				s.lastOut[tier] = obs.Now
				s.above[tier] = 0
			}
		}
		if s.below[tier] >= s.SustainIn && st.Ready > 1 && !st.Pending &&
			obs.Now-s.lastIn[tier] >= s.InCooldown && obs.Now-s.lastOut[tier] >= s.InCooldown {
			cause := fmt.Sprintf("step-scaling: cpu=%.2f < %.2f for %d checks, step=-1", st.CPU, s.Low, s.below[tier])
			if s.env.Act.ScaleIn(tier, cause) {
				s.lastIn[tier] = obs.Now
				s.above[tier], s.below[tier] = 0, 0
			}
		}
	}
}
