package scaling

import (
	"strings"
	"testing"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/rng"
	"conscale/internal/sct"
	"conscale/internal/telemetry"
	"conscale/internal/workload"
)

// testCluster builds a small fast cluster: 1/1/1, 1-core VMs, short VM
// preparation so scaling effects land inside short test runs.
func testCluster(seed uint64) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.PrepDelay = 5 * des.Second
	return cluster.New(cfg)
}

// drive replays a step-load trace through the cluster for dur seconds.
func drive(c *cluster.Cluster, users int, dur des.Time) *workload.Generator {
	tr := workload.NewTrace(workload.SlowlyVarying, users, dur)
	g := workload.NewGenerator(c.Eng, rng.New(99), workload.GeneratorConfig{
		Trace:     tr,
		ThinkTime: 1,
	}, c.Submit)
	g.Start()
	return g
}

func fastSCT() sct.Config {
	return sct.Config{
		CollectionWindow: 60 * des.Second,
		MinTotalSamples:  30,
		MinDistinctBins:  3,
		MinSamplesPerBin: 2,
	}
}

func TestEC2ScalesOutUnderLoad(t *testing.T) {
	c := testCluster(1)
	cfg := DefaultConfig(EC2)
	f := New(c, cfg)
	f.Start()
	drive(c, 1800, 200)
	c.Eng.RunUntil(150)
	if c.ReadyCount(cluster.App) < 2 {
		t.Fatalf("app tier did not scale out: %d VMs", c.ReadyCount(cluster.App))
	}
	found := false
	for _, e := range f.Events() {
		if e.Kind == ScaleOut && e.Tier == cluster.App {
			found = true
		}
	}
	if !found {
		t.Fatal("no ScaleOut event logged")
	}
}

func TestEC2NeverTouchesSoftResources(t *testing.T) {
	c := testCluster(2)
	f := New(c, DefaultConfig(EC2))
	f.Start()
	drive(c, 1800, 200)
	c.Eng.RunUntil(200)
	web, app, db := c.SoftResources()
	if web != 1000 || app != 60 || db != 40 {
		t.Fatalf("EC2 changed soft resources: %d-%d-%d", web, app, db)
	}
	for _, e := range f.Events() {
		if e.Kind == SoftAdapt {
			t.Fatalf("EC2 logged a SoftAdapt event: %+v", e)
		}
	}
}

func TestConScaleAdaptsSoftResources(t *testing.T) {
	c := testCluster(3)
	cfg := DefaultConfig(ConScale)
	cfg.SCT = fastSCT()
	f := New(c, cfg)
	f.Start()
	drive(c, 1800, 280)
	c.Eng.RunUntil(280)
	adapted := false
	for _, e := range f.Events() {
		if e.Kind == SoftAdapt {
			adapted = true
		}
	}
	if !adapted {
		t.Fatal("ConScale never adapted soft resources")
	}
	_, app, db := c.SoftResources()
	if app == 60 && db == 40 {
		t.Fatal("soft resources unchanged from initial 60/40")
	}
	if app < cfg.MinThreads || app > cfg.MaxThreads {
		t.Fatalf("app threads %d outside clamps", app)
	}
	if db < cfg.MinConns || db > cfg.MaxConns {
		t.Fatalf("db conns %d outside clamps", db)
	}
}

func TestConScaleEstimatesPopulated(t *testing.T) {
	c := testCluster(4)
	cfg := DefaultConfig(ConScale)
	cfg.SCT = fastSCT()
	f := New(c, cfg)
	f.Start()
	drive(c, 1600, 220)
	c.Eng.RunUntil(220)
	ests := f.Estimates()
	if len(ests) == 0 {
		t.Fatal("no SCT estimates cached")
	}
	for name, est := range ests {
		if est.Qlower < 1 || est.Qupper < est.Qlower {
			t.Fatalf("%s has invalid estimate %+v", name, est)
		}
	}
}

func TestDCMAppliesProfile(t *testing.T) {
	c := testCluster(5)
	cfg := DefaultConfig(DCM)
	cfg.Profile = DCMProfile{AppThreads: 20, DBTotal: 40}
	f := New(c, cfg)
	f.Start()
	drive(c, 1800, 200)
	c.Eng.RunUntil(180)
	scaled := false
	for _, e := range f.Events() {
		if e.Kind == ScaleOut {
			scaled = true
		}
	}
	if !scaled {
		t.Skip("load did not trigger scaling; DCM apply untestable here")
	}
	_, app, db := c.SoftResources()
	if app != 20 {
		t.Fatalf("DCM app threads = %d, want 20", app)
	}
	apps := c.ReadyCount(cluster.App)
	want := (40 + apps - 1) / apps
	if db != want {
		t.Fatalf("DCM db conns = %d, want %d for %d apps", db, want, apps)
	}
}

func TestDCMEmptyProfileNoop(t *testing.T) {
	c := testCluster(6)
	cfg := DefaultConfig(DCM)
	f := New(c, cfg)
	f.Start()
	drive(c, 1800, 150)
	c.Eng.RunUntil(150)
	_, app, db := c.SoftResources()
	if app != 60 || db != 40 {
		t.Fatalf("empty profile changed soft resources: %d/%d", app, db)
	}
}

func TestScaleInAfterQuietPeriod(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = 7
	cfg.PrepDelay = 2 * des.Second
	cfg.App = 3 // start over-provisioned
	c := cluster.New(cfg)
	fcfg := DefaultConfig(EC2)
	fcfg.SustainIn = 10
	fcfg.InCooldown = 5 * des.Second
	f := New(c, fcfg)
	f.Start()
	drive(c, 50, 300) // trivial load
	c.Eng.RunUntil(200)
	if c.ReadyCount(cluster.App) >= 3 {
		t.Fatalf("idle tier never scaled in: %d VMs", c.ReadyCount(cluster.App))
	}
	found := false
	for _, e := range f.Events() {
		if e.Kind == ScaleIn {
			found = true
		}
	}
	if !found {
		t.Fatal("no ScaleIn event logged")
	}
}

func TestScaleInKeepsOneVM(t *testing.T) {
	c := testCluster(8)
	fcfg := DefaultConfig(EC2)
	fcfg.SustainIn = 5
	fcfg.InCooldown = 2 * des.Second
	f := New(c, fcfg)
	f.Start()
	// No load at all: tiers idle the whole run.
	c.Eng.At(100, func() { c.Eng.Stop() })
	c.Eng.Every(des.Second, func() {}) // keep events flowing
	c.Eng.RunUntil(100)
	if c.ReadyCount(cluster.App) != 1 || c.ReadyCount(cluster.DB) != 1 {
		t.Fatalf("scale-in went below 1 VM: app=%d db=%d",
			c.ReadyCount(cluster.App), c.ReadyCount(cluster.DB))
	}
	f.Stop()
}

func TestStopDisarmsLoops(t *testing.T) {
	c := testCluster(9)
	f := New(c, DefaultConfig(EC2))
	f.Start()
	f.Stop()
	fired := c.Eng.Fired()
	c.Eng.RunUntil(50)
	// Only the ticker events already queued may fire; no sustained loops.
	if c.Eng.Fired() > fired+10 {
		t.Fatalf("loops still running after Stop: %d events", c.Eng.Fired()-fired)
	}
}

func TestClampAndCeilDiv(t *testing.T) {
	if clamp(5, 1, 10) != 5 || clamp(-3, 1, 10) != 1 || clamp(99, 1, 10) != 10 {
		t.Fatal("clamp wrong")
	}
	if ceilDiv(10, 3) != 4 || ceilDiv(9, 3) != 3 || ceilDiv(1, 2) != 1 {
		t.Fatal("ceilDiv wrong")
	}
}

func TestModeAndEventKindStrings(t *testing.T) {
	if EC2.String() != "ec2-autoscaling" || DCM.String() != "dcm" || ConScale.String() != "conscale" {
		t.Fatal("Mode.String wrong")
	}
	if ScaleOut.String() != "scale-out" || ScaleIn.String() != "scale-in" || SoftAdapt.String() != "soft-adapt" {
		t.Fatal("EventKind.String wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") || !strings.Contains(EventKind(9).String(), "9") {
		t.Fatal("unknown enum formatting wrong")
	}
}

func TestWarehouseReceivesMetrics(t *testing.T) {
	c := testCluster(10)
	f := New(c, DefaultConfig(EC2))
	f.Start()
	drive(c, 500, 60)
	c.Eng.RunUntil(60)
	if len(f.Warehouse().Servers()) < 3 {
		t.Fatalf("warehouse has %d servers", len(f.Warehouse().Servers()))
	}
	if got := f.Warehouse().FineSince("mysql1", 0); len(got) == 0 {
		t.Fatal("no mysql1 fine samples in warehouse")
	}
}

func TestVerticalDBScaling(t *testing.T) {
	c := testCluster(11)
	fcfg := DefaultConfig(ConScale)
	fcfg.VerticalDBMaxCores = 2
	f := New(c, fcfg)
	f.Start()
	// Saturate the DB tier directly: many app threads, wide pools.
	c.SetAppThreads(200)
	c.SetDBConns(150)
	drive(c, 1800, 240)
	c.Eng.RunUntil(160)
	if c.Servers(cluster.DB)[0].Cores() != 2 {
		t.Fatalf("DB cores = %d, want vertical scale-up to 2", c.Servers(cluster.DB)[0].Cores())
	}
	foundUp := false
	for _, e := range f.Events() {
		if e.Kind == ScaleOut && e.Tier == cluster.DB &&
			strings.Contains(e.Detail, "scale-up") {
			foundUp = true
		}
	}
	if !foundUp {
		t.Fatal("no scale-up event logged")
	}
}

func TestVerticalFallsBackToHorizontal(t *testing.T) {
	c := testCluster(12)
	fcfg := DefaultConfig(ConScale)
	fcfg.VerticalDBMaxCores = 1 // already at the cap: must add VMs instead
	f := New(c, fcfg)
	f.Start()
	c.SetAppThreads(200)
	c.SetDBConns(150)
	drive(c, 1800, 240)
	c.Eng.RunUntil(240)
	if c.Servers(cluster.DB)[0].Cores() != 1 {
		t.Fatal("scale-up happened beyond the core cap")
	}
	// The DB tier must have gained a VM at some point (it may legitimately
	// scale back in when the trace declines).
	horizontal := false
	for _, e := range f.Events() {
		if e.Kind == ScaleOut && e.Tier == cluster.DB &&
			!strings.Contains(e.Detail, "scale-up") {
			horizontal = true
		}
	}
	if !horizontal {
		t.Fatal("no horizontal fallback scale-out logged")
	}
}

func TestSLATriggerScalesWithoutCPUThreshold(t *testing.T) {
	// Under-allocation regime: tiny thread pool keeps app CPU low while
	// queues (and response times) grow. The CPU threshold never fires;
	// the SLA trigger must.
	cfg := cluster.DefaultConfig()
	cfg.Seed = 13
	cfg.PrepDelay = 5 * des.Second
	cfg.AppThreads = 3 // far below the ~10 optimum: CPU stays < 80%
	c := cluster.New(cfg)
	fcfg := DefaultConfig(EC2)
	fcfg.SLATarget = 0.200 // 200 ms p95 target
	fcfg.SLAPercentile = 95
	f := New(c, fcfg)
	f.Start()
	drive(c, 1200, 120)
	c.Eng.RunUntil(120)
	slaFired := false
	for _, e := range f.Events() {
		if e.Kind == ScaleOut && strings.Contains(e.Detail, "sla trigger") {
			slaFired = true
		}
	}
	if !slaFired {
		t.Fatal("SLA trigger never fired despite burning response times")
	}
}

func TestSLATriggerQuietWhenHealthy(t *testing.T) {
	c := testCluster(14)
	fcfg := DefaultConfig(EC2)
	fcfg.SLATarget = 5.0 // absurdly generous: never breached
	f := New(c, fcfg)
	f.Start()
	drive(c, 400, 80) // light load
	c.Eng.RunUntil(80)
	for _, e := range f.Events() {
		if strings.Contains(e.Detail, "sla trigger") {
			t.Fatalf("SLA trigger fired on a healthy system: %+v", e)
		}
	}
}

// TestConfigWithDefaults pins the one defaulting function every
// constructor applies: zero-valued knobs take DefaultConfig's one field
// at a time, so whatever the caller did set survives.
func TestConfigWithDefaults(t *testing.T) {
	profile := DCMProfile{AppThreads: 20, DBTotal: 40}
	cases := []struct {
		name  string
		in    Config
		check func(t *testing.T, got Config)
	}{
		{"zero config is DefaultConfig plus the SLA defaults", Config{Mode: ConScale}, func(t *testing.T, got Config) {
			want := DefaultConfig(ConScale)
			want.SLAPercentile, want.SLAWindow = 95, 10*des.Second
			want.SCT = sct.Config{} // left to sct.New
			if got != want {
				t.Fatalf("got %+v\nwant %+v", got, want)
			}
		}},
		{"only Profile set keeps it", Config{Mode: DCM, Profile: profile}, func(t *testing.T, got Config) {
			if got.Profile != profile || got.CheckEvery != des.Second || got.MaxThreads != 400 {
				t.Fatalf("profile-only config lost a field: %+v", got)
			}
		}},
		{"SCT override and clamps survive", Config{SCT: fastSCT(), MaxThreads: 32, MinConns: 8}, func(t *testing.T, got Config) {
			if got.SCT != fastSCT() || got.MaxThreads != 32 || got.MinConns != 8 || got.MinThreads != 4 {
				t.Fatalf("override lost: %+v", got)
			}
		}},
		{"negative AdaptEvery stays off", Config{AdaptEvery: -1}, func(t *testing.T, got Config) {
			if got.AdaptEvery != -1 {
				t.Fatalf("AdaptEvery = %v, want -1 (disabled)", got.AdaptEvery)
			}
		}},
		{"a full config is untouched", func() Config {
			c := DefaultConfig(EC2)
			c.SustainIn, c.SLAPercentile, c.SLAWindow = 5, 99, 20*des.Second
			return c
		}(), func(t *testing.T, got Config) {
			want := DefaultConfig(EC2)
			want.SustainIn, want.SLAPercentile, want.SLAWindow = 5, 99, 20*des.Second
			if got != want {
				t.Fatalf("got %+v\nwant %+v", got, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, tc.in.withDefaults()) })
	}
	// Every constructor goes through it: a zoo policy built from a
	// Profile-only Base sees the profile and the default thresholds.
	c, err := NewController("step-scaling", Options{Base: Config{Profile: profile}})
	if err != nil {
		t.Fatal(err)
	}
	if ss := c.(*StepScaling); ss.High != 0.80 || ss.SustainIn != 45 {
		t.Fatalf("zoo policy built from a sparse Base got High=%v SustainIn=%d", ss.High, ss.SustainIn)
	}
	if f := Attach(testCluster(1), c, Options{Base: Config{Profile: profile}}); f.cfg.Profile != profile || f.cfg.CheckEvery != des.Second {
		t.Fatalf("Attach dropped the sparse Base: %+v", f.cfg)
	}
}

func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{"ec2": EC2, "EC2-AutoScaling": EC2, "dcm": DCM, " conscale ": ConScale} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"turbo", "step-scaling"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) must be rejected", bad)
		}
	}
	// Mode.String() round-trips through the registry.
	for _, m := range []Mode{EC2, DCM, ConScale} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%v.String()) = %v, %v", m, got, err)
		}
	}
}

// TestLoopsArePolicyDeclared pins which tickers each policy gets: EC2
// and DCM run no estimator (empty Estimates, no SCT audit records),
// ConScale runs estimator and adapter, every other policy the estimator
// alone.
func TestLoopsArePolicyDeclared(t *testing.T) {
	for _, name := range Names() {
		f, err := NewNamed(testCluster(1), name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		wantEst := name != "ec2" && name != "dcm"
		wantAdapt := name == "conscale"
		if (f.estimator != nil) != wantEst || (f.adapter != nil) != wantAdapt {
			t.Errorf("%s: estimator armed=%v adapter armed=%v, want %v/%v",
				name, f.estimator != nil, f.adapter != nil, wantEst, wantAdapt)
		}
		f.Stop()
	}
}

// hwWatcher is a do-nothing policy that records the HardwareChanged hook.
type hwWatcher struct {
	env     Env
	changed []cluster.Tier
}

func (w *hwWatcher) Name() string                      { return "hw-watcher" }
func (w *hwWatcher) Init(env Env)                      { w.env = env }
func (w *hwWatcher) Tick(*Observation)                 {}
func (w *hwWatcher) Stop()                             {}
func (w *hwWatcher) HardwareChanged(tier cluster.Tier) { w.changed = append(w.changed, tier) }

// TestHardwareChangedHook: the runtime tells an observing policy when a
// launch lands — its own scale-out and a dark-tier repair alike.
func TestHardwareChangedHook(t *testing.T) {
	c := testCluster(1) // PrepDelay 5 s
	w := &hwWatcher{}
	f := Attach(c, w, Options{})
	f.Start()
	defer f.Stop()
	c.Eng.At(2, func() { w.env.Act.ScaleOut(cluster.App, "test launch") })
	c.Eng.At(10, func() {
		for c.KillVM(cluster.DB) != "" {
		}
	})
	c.Eng.RunUntil(20)
	if len(w.changed) != 2 || w.changed[0] != cluster.App || w.changed[1] != cluster.DB {
		t.Fatalf("HardwareChanged saw %v, want [app db]", w.changed)
	}
}

// TestTelemetryFamilies: one RegisterTelemetry exposes every family for
// every policy.
func TestTelemetryFamilies(t *testing.T) {
	for _, name := range []string{"ec2", "conscale", "step-scaling"} {
		f, err := NewNamed(testCluster(1), name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		f.RegisterTelemetry(reg)
		var buf strings.Builder
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		for _, fam := range []string{
			"conscale_scaling_events_total", "conscale_scaling_triggers_total",
			"conscale_scaling_cooldown_skips_total", "conscale_controller_actions_total",
			"conscale_controller_denies_total", "conscale_sct_qlower", "conscale_sct_qupper",
			"conscale_sct_plateau_tp",
		} {
			if !strings.Contains(buf.String(), "# TYPE "+fam+" ") {
				t.Errorf("%s: family %s not exposed", name, fam)
			}
		}
	}
}
