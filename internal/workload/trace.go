// Package workload provides the six realistic bursty workload traces of the
// paper's evaluation (Fig. 9, categorised from real-world traces by Gandhi
// et al.'s AutoScale work) and the closed-loop user-population generator
// that replays a trace against the n-tier system.
package workload

import (
	"fmt"
	"math"
	"strings"

	"conscale/internal/des"
)

// Trace is a time-varying concurrent-user curve.
type Trace struct {
	// Name labels the trace in reports and CSV artifacts.
	Name string
	// Duration is the total simulated span of the trace.
	Duration des.Time
	// MaxUsers is the population at normalised load 1.0.
	MaxUsers int
	// shape maps normalised time u in [0,1] to normalised load in [0,1].
	shape func(u float64) float64
}

// UsersAt returns the target number of concurrent users at virtual time t.
// Before 0 and after Duration the endpoint values hold.
func (tr *Trace) UsersAt(t des.Time) int {
	u := float64(t / tr.Duration)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	v := tr.shape(u)
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return int(v*float64(tr.MaxUsers) + 0.5)
}

// Series samples the trace at the given interval, for plotting and the
// Fig. 9 reproduction.
func (tr *Trace) Series(interval des.Time) []int {
	var out []int
	for t := des.Time(0); t <= tr.Duration; t += interval {
		out = append(out, tr.UsersAt(t))
	}
	return out
}

// Peak returns the maximum user count over a 1-second sampling.
func (tr *Trace) Peak() int {
	peak := 0
	for _, v := range tr.Series(des.Second) {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// The six trace names, matching Fig. 9's captions.
const (
	LargeVariations = "large-variations"
	QuicklyVarying  = "quickly-varying"
	SlowlyVarying   = "slowly-varying"
	BigSpike        = "big-spike"
	DualPhase       = "dual-phase"
	SteepTriPhase   = "steep-tri-phase"
)

// Constant names the flat trace (NewConstantTrace's shape) so run
// configurations can request it by name like the six standard traces —
// the hypothesis harness's calibrated steady-state regime. It is not
// part of Names(): the paper's factorials stay six-way.
const Constant = "constant"

// smoothstep is the classic cubic ease between edges a and b.
func smoothstep(a, b, x float64) float64 {
	if x <= a {
		return 0
	}
	if x >= b {
		return 1
	}
	t := (x - a) / (b - a)
	return t * t * (3 - 2*t)
}

// gauss is an un-normalised Gaussian bump.
func gauss(x, center, width float64) float64 {
	d := (x - center) / width
	return math.Exp(-d * d / 2)
}

// shapes is the table of named traces: NewTrace builds from it and
// CheckTrace validates against it, so what a config may name is what can
// run.
var shapes = map[string]func(u float64) float64{
	// Flat load at maxUsers for the whole run.
	Constant: func(float64) float64 { return 1 },
	// Several big swings: three major peaks with deep valleys.
	LargeVariations: func(u float64) float64 {
		v := 0.45 + 0.33*math.Sin(2*math.Pi*2.6*u-0.9) + 0.18*math.Sin(2*math.Pi*5.3*u+1.7)
		return 0.12 + 0.88*clamp01(v)
	},
	// Rapid oscillation around a mid level.
	QuicklyVarying: func(u float64) float64 {
		v := 0.5 + 0.28*math.Sin(2*math.Pi*9*u) + 0.16*math.Sin(2*math.Pi*17*u+0.6)
		return 0.10 + 0.80*clamp01(v)
	},
	// One slow rise and fall across the run.
	SlowlyVarying: func(u float64) float64 {
		return 0.15 + 0.85*math.Pow(math.Sin(math.Pi*u), 1.6)
	},
	// Modest baseline with one sudden tall spike near 40% of the run.
	BigSpike: func(u float64) float64 {
		base := 0.28 + 0.06*math.Sin(2*math.Pi*2*u)
		return clamp01(base + 0.72*gauss(u, 0.42, 0.045))
	},
	// Low plateau, steep climb to a high plateau, then descent.
	DualPhase: func(u float64) float64 {
		up := smoothstep(0.35, 0.45, u)
		down := smoothstep(0.82, 0.95, u)
		return 0.25 + 0.65*up - 0.55*down
	},
	// Three steep steps upward, then a cliff at the end.
	SteepTriPhase: func(u float64) float64 {
		v := 0.18 +
			0.30*smoothstep(0.22, 0.27, u) +
			0.42*smoothstep(0.55, 0.60, u) -
			0.70*smoothstep(0.88, 0.93, u)
		return clamp01(v)
	},
}

// CheckTrace reports whether NewTrace knows the name: one of Names() or
// Constant.
func CheckTrace(name string) error {
	if _, ok := shapes[name]; !ok {
		return fmt.Errorf("workload: unknown trace %q; available: %s, %s",
			name, strings.Join(Names(), ", "), Constant)
	}
	return nil
}

// NewTrace builds one of the six standard traces (or Constant) with the
// given peak user count and duration. It panics on an unknown name;
// CheckTrace validates one first.
func NewTrace(name string, maxUsers int, duration des.Time) *Trace {
	if maxUsers <= 0 || duration <= 0 {
		panic("workload: non-positive trace parameters")
	}
	if err := CheckTrace(name); err != nil {
		panic(err)
	}
	return &Trace{Name: name, Duration: duration, MaxUsers: maxUsers, shape: shapes[name]}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// NewCustomTrace builds a trace from an arbitrary normalised shape
// function mapping u in [0,1] (fraction of the duration) to load in
// [0,1] (fraction of maxUsers) — the hook external trace files attach
// through.
func NewCustomTrace(name string, maxUsers int, duration des.Time, shape func(u float64) float64) *Trace {
	if maxUsers <= 0 || duration <= 0 {
		panic("workload: non-positive trace parameters")
	}
	if shape == nil {
		panic("workload: nil shape")
	}
	return &Trace{Name: name, Duration: duration, MaxUsers: maxUsers, shape: shape}
}

// NewConstantTrace returns a flat trace holding the given user count for
// the duration — the profiling sweeps' "fixed number of threads" load.
func NewConstantTrace(users int, duration des.Time) *Trace {
	if users <= 0 || duration <= 0 {
		panic("workload: non-positive trace parameters")
	}
	return &Trace{
		Name:     "constant",
		Duration: duration,
		MaxUsers: users,
		shape:    func(float64) float64 { return 1 },
	}
}

// Names returns the six standard trace names in the paper's order.
func Names() []string {
	return []string{LargeVariations, QuicklyVarying, SlowlyVarying, BigSpike, DualPhase, SteepTriPhase}
}

// StandardTraces builds all six traces with the paper's evaluation
// parameters (7500 max users, 12 minutes).
func StandardTraces() []*Trace {
	out := make([]*Trace, 0, 6)
	for _, n := range Names() {
		out = append(out, NewTrace(n, 7500, 720*des.Second))
	}
	return out
}
