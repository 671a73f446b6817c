package chaos

import (
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/rng"
)

// RandomCrashes generates a Poisson process of VM crashes over the run:
// exponential gaps with mean 60/perMinute seconds, each crash hitting a
// uniformly drawn tier from tiers and a random ready VM within it. The
// schedule is fully determined by the seed, so it composes with any trace.
func RandomCrashes(seed uint64, perMinute float64, duration des.Time, tiers ...cluster.Tier) *Schedule {
	s := NewSchedule()
	if perMinute <= 0 || duration <= 0 || len(tiers) == 0 {
		return s
	}
	rnd := rng.New(seed)
	mean := 60 / perMinute
	at := des.Time(rnd.Exp(mean))
	for at < duration {
		tier := tiers[rnd.Intn(len(tiers))]
		s.Add(Crash(at, tier, PickRandom))
		at += des.Time(rnd.Exp(mean))
	}
	return s
}

// InterferenceBursts generates n noisy-neighbor windows at uniform random
// start times over the run, each lasting an exponential draw with mean
// meanLen and slowing one random VM of the tier by slowdown.
func InterferenceBursts(seed uint64, n int, duration, meanLen des.Time, tier cluster.Tier, slowdown float64) *Schedule {
	s := NewSchedule()
	if n <= 0 || duration <= 0 {
		return s
	}
	rnd := rng.New(seed)
	for i := 0; i < n; i++ {
		at := des.Time(rnd.Float64()) * duration
		length := des.Time(rnd.Exp(float64(meanLen)))
		s.Add(Interference(at, length, tier, PickRandom, slowdown))
	}
	return s
}

// JitterBursts generates n network-delay windows on the RPC edge into
// tier, at uniform random start times, each lasting an exponential draw
// with mean meanLen and adding delay per call.
func JitterBursts(seed uint64, n int, duration, meanLen des.Time, tier cluster.Tier, delay des.Time) *Schedule {
	s := NewSchedule()
	if n <= 0 || duration <= 0 {
		return s
	}
	rnd := rng.New(seed)
	for i := 0; i < n; i++ {
		at := des.Time(rnd.Float64()) * duration
		length := des.Time(rnd.Exp(float64(meanLen)))
		s.Add(Jitter(at, length, tier, delay))
	}
	return s
}
