package scaling

import (
	"math"
	"strings"
	"testing"

	"conscale/internal/cluster"
	"conscale/internal/des"
)

// fakeAct records every action a policy emits, optionally refusing
// scale actions, so policy logic is testable without a cluster.
type fakeAct struct {
	outs, ins []cluster.Tier
	threads   []int
	conns     []int
	refuse    bool
}

func (a *fakeAct) ScaleOut(tier cluster.Tier, cause string) bool {
	if a.refuse {
		return false
	}
	a.outs = append(a.outs, tier)
	return true
}

func (a *fakeAct) ScaleIn(tier cluster.Tier, cause string) bool {
	if a.refuse {
		return false
	}
	a.ins = append(a.ins, tier)
	return true
}

func (a *fakeAct) SetAppThreads(n int, cause string) { a.threads = append(a.threads, n) }
func (a *fakeAct) SetDBConns(n int, cause string)    { a.conns = append(a.conns, n) }

// policyEnv wires a policy to the fake actuator with no cluster and no
// signal — the minimum environment a hardware-only policy needs.
func policyEnv(act Actuator) Env {
	return Env{Act: act, Opts: Options{Base: DefaultConfig(EC2)}}
}

func obsAt(now des.Time, appCPU, dbCPU float64, appReady, dbReady int) *Observation {
	return &Observation{
		Now:  now,
		App:  TierState{CPU: appCPU, MinCPU: appCPU, MaxCPU: appCPU, Ready: appReady},
		DB:   TierState{CPU: dbCPU, MinCPU: dbCPU, MaxCPU: dbCPU, Ready: dbReady},
		Tail: math.NaN(),
	}
}

func TestRegistryKnowsAllFamilies(t *testing.T) {
	want := []string{"conscale", "dcm", "ec2", "hybrid-mpc", "step-scaling",
		"tabs-token", "target-tracking", "target-tracking-sct"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
}

func TestNewUnknownAndAliases(t *testing.T) {
	if _, err := NewController("no-such-policy", Options{}); err == nil {
		t.Fatal("unknown controller did not error")
	} else if !strings.Contains(err.Error(), "target-tracking") {
		t.Fatalf("error should name the registered controllers: %v", err)
	}
	for alias, canon := range map[string]string{"ec2-autoscaling": "ec2", "tabs": "tabs-token", "EC2": "ec2", " dcm ": "dcm"} {
		c, err := NewController(alias, Options{})
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if c.Name() != canon {
			t.Fatalf("alias %q built %q, want %q", alias, c.Name(), canon)
		}
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("ec2", func(Options) Controller { return nil })
}

func TestHoltForecastTracksTrend(t *testing.T) {
	h := &holt{alpha: 0.25, beta: 0.05}
	for i := 0; i < 200; i++ {
		h.observe(float64(i)) // demand ramps linearly
	}
	if h.trend <= 0 {
		t.Fatalf("rising series learned trend %v", h.trend)
	}
	if f0, f10 := h.forecast(0), h.forecast(10); f10 <= f0 {
		t.Fatalf("forecast does not extrapolate the trend: f(0)=%v f(10)=%v", f0, f10)
	}
	down := &holt{alpha: 0.25, beta: 0.05}
	for i := 0; i < 200; i++ {
		down.observe(float64(200 - i))
	}
	if down.forecast(1000) != 0 {
		t.Fatalf("falling series should floor at zero, got %v", down.forecast(1000))
	}
}

func TestTargetTrackingScalesOutOverTarget(t *testing.T) {
	act := &fakeAct{}
	tt := newTargetTracking(Options{Base: DefaultConfig(EC2)}, false)
	tt.Init(policyEnv(act))

	// CPU over the setpoint: desired = ceil(2×0.9/0.65) = 3 > 2 ready.
	tt.Tick(obsAt(100*des.Second, 0.9, 0.4, 2, 2))
	if len(act.outs) != 1 || act.outs[0] != cluster.App {
		t.Fatalf("want one app scale-out, got %v", act.outs)
	}
	// Same breach inside the cooldown must not fire again.
	tt.Tick(obsAt(101*des.Second, 0.9, 0.4, 2, 2))
	if len(act.outs) != 1 {
		t.Fatalf("cooldown did not suppress the repeat: %v", act.outs)
	}
}

func TestTargetTrackingScaleInNeedsSustain(t *testing.T) {
	act := &fakeAct{}
	opts := Options{Base: DefaultConfig(EC2)}
	tt := newTargetTracking(opts, false)
	tt.Init(policyEnv(act))

	now := 200 * des.Second
	for i := 0; i < opts.Base.SustainIn-1; i++ {
		tt.Tick(obsAt(now, 0.10, 0.10, 3, 2))
		now += des.Second
	}
	if len(act.ins) != 0 {
		t.Fatalf("scale-in fired before the sustain window closed: %v", act.ins)
	}
	tt.Tick(obsAt(now, 0.10, 0.10, 3, 2))
	if len(act.ins) != 2 { // both tiers were quiet for the full window
		t.Fatalf("want both tiers scaled in after sustain, got %v", act.ins)
	}
}

func TestStepScalingSurgeBurstsTwo(t *testing.T) {
	act := &fakeAct{}
	c, err := NewController("step-scaling", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Init(policyEnv(act))
	ss := c.(*StepScaling)

	now := 100 * des.Second
	for i := 0; i < ss.SustainOut; i++ {
		c.Tick(obsAt(now, 0.95, 0.5, 2, 2)) // surge band: ≥0.90
		now += des.Second
	}
	if got := len(act.outs); got != 2 {
		t.Fatalf("surge band should burst two launches, got %d (%v)", got, act.outs)
	}
	for _, tier := range act.outs {
		if tier != cluster.App {
			t.Fatalf("surge fired on the wrong tier: %v", act.outs)
		}
	}
}

func TestStepScalingRefusedActionKeepsCounting(t *testing.T) {
	act := &fakeAct{refuse: true}
	c, err := NewController("step-scaling", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Init(policyEnv(act))
	ss := c.(*StepScaling)

	now := 100 * des.Second
	for i := 0; i < ss.SustainOut+3; i++ {
		c.Tick(obsAt(now, 0.85, 0.5, 2, 2))
		now += des.Second
	}
	// Refused launches must not consume the cooldown or reset the breach
	// counter — the policy keeps retrying on later ticks.
	if ss.above[cluster.App] < ss.SustainOut {
		t.Fatalf("refused scale-out reset the breach counter: %d", ss.above[cluster.App])
	}
}

func TestTABSDepletionDetection(t *testing.T) {
	if c, err := NewController("tabs", Options{}); err != nil || c.Name() != "tabs-token" {
		t.Fatalf("tabs alias: %v, %v", c, err)
	}
	cases := []struct {
		name string
		tier cluster.Tier
		st   TierState
		want bool
	}{
		{"app idle token free", cluster.App, TierState{Idle: 1, MinCPU: 0.95}, false},
		{"app queue with no tokens", cluster.App, TierState{Idle: 0, Queue: 5}, true},
		{"app all hot", cluster.App, TierState{Idle: 0, MinCPU: 0.90}, true},
		{"app no tokens but unloaded", cluster.App, TierState{Idle: 0, MinCPU: 0.40}, false},
		{"db pool waiters", cluster.DB, TierState{Idle: 0, PoolWaiting: 3}, true},
		{"db disk bound", cluster.DB, TierState{Idle: 0, Disk: 0.90}, true},
		{"db unloaded", cluster.DB, TierState{Idle: 0, MinCPU: 0.30}, false},
	}
	for _, tc := range cases {
		if got := depleted(tc.tier, tc.st); got != tc.want {
			t.Errorf("%s: depleted=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSignalApplyPoolsNilReceiver(t *testing.T) {
	var s *Signal
	act := &fakeAct{}
	s.ApplyPools(act, obsAt(0, 0.5, 0.5, 1, 1)) // must not panic
	if len(act.threads)+len(act.conns) != 0 {
		t.Fatal("nil signal acted on pools")
	}
}
