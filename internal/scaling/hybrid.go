package scaling

import (
	"fmt"

	"conscale/internal/cluster"
	"conscale/internal/des"
)

// holt is Holt's linear (double-exponential) smoother: a level and a
// trend updated per observation, forecasting level + trend×k at horizon
// k. It is the seed-deterministic workload forecaster of the hybrid
// controller — no randomness, a pure fold over the observed series.
type holt struct {
	alpha, beta  float64
	level, trend float64
	n            int
}

// observe folds one sample into the smoother.
func (h *holt) observe(v float64) {
	if h.n == 0 {
		h.level, h.trend = v, 0
		h.n = 1
		return
	}
	prev := h.level
	h.level = h.alpha*v + (1-h.alpha)*(h.level+h.trend)
	h.trend = h.beta*(h.level-prev) + (1-h.beta)*h.trend
	h.n++
}

// forecast extrapolates k steps ahead (k ≥ 0), floored at zero —
// demand cannot be negative.
func (h *holt) forecast(k int) float64 {
	v := h.level + h.trend*float64(k)
	if v < 0 {
		return 0
	}
	return v
}

// HybridMPC is the OptScaler-style hybrid proactive/reactive
// controller: a workload forecaster (Holt's linear trend over per-tier
// demand, where demand = cpu × ready normalizes utilization into
// VM-equivalents) feeds a proactive capacity plan, and an MPC-like
// one-step correction loop evaluates the candidate actions {-1, 0, +1}
// against the forecast horizon each tick, charging predicted
// over-target utilization quadratically, idle capacity linearly, and a
// switching cost per action. The argmin action executes, subject to
// cooldowns and a sustained-quiet requirement for scale-in.
//
// The demand estimate each tick is the max of the instantaneous
// observation and the forecast — the reactive correction that keeps a
// misforecast from starving the system. Pool sizing consumes the SCT
// signal.
type HybridMPC struct {
	// Target is the planned utilization ceiling (default 0.65).
	Target float64
	// Horizon is the forecast lookahead in ticks (default 30).
	Horizon int
	// SwitchCost / IdleCost weigh an action and a VM-tick of headroom
	// against predicted over-target utilization.
	SwitchCost, IdleCost float64
	// SustainIn is the consecutive ticks the search must prefer -1
	// before a scale-in executes.
	SustainIn int
	// OutCooldown / InCooldown block repeat actions per tier.
	OutCooldown, InCooldown des.Time

	env     Env
	fc      map[cluster.Tier]*holt
	wantIn  map[cluster.Tier]int
	lastOut map[cluster.Tier]des.Time
	lastIn  map[cluster.Tier]des.Time
}

func init() {
	Register("hybrid-mpc", func(opts Options) Controller {
		return &HybridMPC{
			Target:      0.65,
			Horizon:     30,
			SwitchCost:  0.4,
			IdleCost:    0.02,
			SustainIn:   opts.Base.SustainIn,
			OutCooldown: opts.Base.OutCooldown,
			InCooldown:  opts.Base.InCooldown,
		}
	})
}

// Name implements Controller.
func (m *HybridMPC) Name() string { return "hybrid-mpc" }

// Init implements Controller.
func (m *HybridMPC) Init(env Env) {
	m.env = env
	m.fc = map[cluster.Tier]*holt{
		cluster.App: {alpha: 0.25, beta: 0.05},
		cluster.DB:  {alpha: 0.25, beta: 0.05},
	}
	m.wantIn = make(map[cluster.Tier]int)
	m.lastOut = make(map[cluster.Tier]des.Time)
	m.lastIn = make(map[cluster.Tier]des.Time)
}

// Stop implements Controller.
func (m *HybridMPC) Stop() {}

// cost scores holding capacity `ready` over the horizon against the
// forecaster, blending in the instantaneous demand floor.
func (m *HybridMPC) cost(fc *holt, nowDemand float64, ready, action int) float64 {
	c := m.SwitchCost * float64(abs(action))
	for k := 1; k <= m.Horizon; k++ {
		d := fc.forecast(k)
		if nowDemand > d {
			d = nowDemand // reactive floor: trust the worse of model and measurement
		}
		u := d / float64(ready)
		if u > m.Target {
			over := u - m.Target
			c += over * over
		} else {
			c += m.IdleCost * (m.Target - u)
		}
	}
	return c
}

// Tick implements Controller.
func (m *HybridMPC) Tick(obs *Observation) {
	m.env.Signal.ApplyPools(m.env.Act, obs)
	for _, tier := range scalableTiers {
		st := obs.App
		if tier == cluster.DB {
			st = obs.DB
		}
		if st.Ready == 0 {
			continue
		}
		demand := st.CPU * float64(st.Ready)
		fc := m.fc[tier]
		fc.observe(demand)
		if fc.n < 5 {
			continue // plan only once the forecaster has warmed up
		}

		best, bestCost := 0, 0.0
		for i, a := range [3]int{0, +1, -1} {
			ready := st.Ready + a
			if ready < 1 {
				continue
			}
			c := m.cost(fc, demand, ready, a)
			if i == 0 || c < bestCost {
				best, bestCost = a, c
			}
		}

		switch {
		case best > 0:
			m.wantIn[tier] = 0
			if st.Pending || obs.Now-m.lastOut[tier] < m.OutCooldown {
				continue
			}
			cause := fmt.Sprintf("hybrid-mpc: forecast demand=%.2f (level=%.2f trend=%+.3f) over %d ticks exceeds target %.2f at ready=%d",
				fc.forecast(m.Horizon), fc.level, fc.trend, m.Horizon, m.Target, st.Ready)
			if m.env.Act.ScaleOut(tier, cause) {
				m.lastOut[tier] = obs.Now
			}
		case best < 0:
			m.wantIn[tier]++
			if m.wantIn[tier] >= m.SustainIn && st.Ready > 1 && !st.Pending &&
				obs.Now-m.lastIn[tier] >= m.InCooldown && obs.Now-m.lastOut[tier] >= m.InCooldown {
				cause := fmt.Sprintf("hybrid-mpc: plan prefers ready=%d for %d ticks (demand=%.2f)",
					st.Ready-1, m.wantIn[tier], demand)
				if m.env.Act.ScaleIn(tier, cause) {
					m.lastIn[tier] = obs.Now
					m.wantIn[tier] = 0
				}
			}
		default:
			m.wantIn[tier] = 0
		}
	}
}

// abs returns |v|.
func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
