package scaling

import (
	"fmt"

	"conscale/internal/cluster"
	"conscale/internal/des"
)

// TABSTokens is token-based elasticity in the style of TABS (Mukherjee
// & Borst): every in-service server holds an idle token while it is
// near-idle; arrivals consume tokens, and two depletion-driven rules
// govern capacity. When the token pool is depleted — no server is idle
// and work queues at the tier — a new server spins up after a short
// sustained confirmation. When the tier has held at least one idle
// token continuously for the idle timeout, the surplus server spins
// down. The result is join-idle-queue-shaped elasticity: capacity
// chases the number of busy servers rather than an aggregate CPU
// threshold.
//
// Pool sizing consumes the SCT signal so that soft-resource starvation
// is not misread as token depletion (queues caused by an undersized
// thread pool would otherwise spin up hardware that then idles).
type TABSTokens struct {
	// IdleCPU is the utilization under which a server holds an idle
	// token (default 0.10; TierState.Idle uses the same bound).
	IdleCPU float64
	// DepleteSustain is the consecutive depleted ticks before spin-up.
	DepleteSustain int
	// IdleTimeout is the consecutive ticks the tier must hold an idle
	// token before a server spins down (the standby timer).
	IdleTimeout int
	// OutCooldown / InCooldown block repeat actions per tier.
	OutCooldown, InCooldown des.Time

	env     Env
	starved map[cluster.Tier]int
	idleFor map[cluster.Tier]int
	lastOut map[cluster.Tier]des.Time
	lastIn  map[cluster.Tier]des.Time
}

func init() {
	Register("tabs-token", func(opts Options) Controller {
		return &TABSTokens{
			IdleCPU:        0.10,
			DepleteSustain: 3,
			IdleTimeout:    opts.Base.SustainIn,
			OutCooldown:    opts.Base.OutCooldown,
			InCooldown:     opts.Base.InCooldown,
		}
	})
}

// Name implements Controller.
func (t *TABSTokens) Name() string { return "tabs-token" }

// Init implements Controller.
func (t *TABSTokens) Init(env Env) {
	t.env = env
	t.starved = make(map[cluster.Tier]int)
	t.idleFor = make(map[cluster.Tier]int)
	t.lastOut = make(map[cluster.Tier]des.Time)
	t.lastIn = make(map[cluster.Tier]des.Time)
}

// Stop implements Controller.
func (t *TABSTokens) Stop() {}

// depleted reports whether the tier's token pool is empty AND work is
// waiting — an arrival found no idle server.
func depleted(tier cluster.Tier, st TierState) bool {
	if st.Idle > 0 {
		return false
	}
	if tier == cluster.DB {
		// DB-tier pressure shows up as app threads queued on the
		// connection pools or saturated DB hardware.
		return st.PoolWaiting > 0 || st.Disk > 0.85 || st.MinCPU > 0.85
	}
	return st.Queue > 0 || st.MinCPU > 0.85
}

// Tick implements Controller.
func (t *TABSTokens) Tick(obs *Observation) {
	t.env.Signal.ApplyPools(t.env.Act, obs)
	for _, tier := range scalableTiers {
		st := obs.App
		if tier == cluster.DB {
			st = obs.DB
		}
		if depleted(tier, st) {
			t.starved[tier]++
			t.idleFor[tier] = 0
		} else {
			t.starved[tier] = 0
			if st.Idle > 0 {
				t.idleFor[tier]++
			} else {
				t.idleFor[tier] = 0
			}
		}
		if t.starved[tier] >= t.DepleteSustain && !st.Pending && obs.Now-t.lastOut[tier] >= t.OutCooldown {
			cause := fmt.Sprintf("tabs: token depletion for %d checks (idle=0, queue=%d, waiting=%d)",
				t.starved[tier], st.Queue, st.PoolWaiting)
			if t.env.Act.ScaleOut(tier, cause) {
				t.lastOut[tier] = obs.Now
				t.starved[tier] = 0
			}
		}
		if t.idleFor[tier] >= t.IdleTimeout && st.Ready > 1 && !st.Pending &&
			obs.Now-t.lastIn[tier] >= t.InCooldown && obs.Now-t.lastOut[tier] >= t.InCooldown {
			cause := fmt.Sprintf("tabs: idle token held for %d checks (idle=%d of %d)",
				t.idleFor[tier], st.Idle, st.Ready)
			if t.env.Act.ScaleIn(tier, cause) {
				t.lastIn[tier] = obs.Now
				t.idleFor[tier] = 0
			}
		}
	}
}
