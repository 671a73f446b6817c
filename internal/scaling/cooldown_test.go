package scaling

import (
	"testing"

	"conscale/internal/cluster"
	"conscale/internal/des"
)

// twoAppCluster returns a cluster with two ready app VMs and the engine
// advanced past their preparation, so scale-in is not blocked by the
// last-VM guard.
func twoAppCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := testCluster(1)
	if !c.AddVM(cluster.App, nil) {
		t.Fatal("could not add second app VM")
	}
	c.Eng.RunUntil(30 * des.Second)
	if got := c.ReadyCount(cluster.App); got != 2 {
		t.Fatalf("want 2 ready app VMs, got %d", got)
	}
	return c
}

// paperPolicy returns the threshold engine a paper-policy Framework
// drives.
func paperPolicy(f *Framework) *threshold { return f.ctrl.(*threshold) }

func countKind(events []Event, kind EventKind, tier cluster.Tier) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind && e.Tier == tier {
			n++
		}
	}
	return n
}

// TestQuietCounterResetsWhenLaunchLands pins the flap fix: quiet ticks
// accumulated while a scale-out launch (or a dark-tier repair) was
// pending measured a configuration that no longer exists, so the policy's
// HardwareChanged hook must restart the below-counter — otherwise a counter
// saturated during the preparation period drains the new VM on the
// first post-ready decision tick.
func TestQuietCounterResetsWhenLaunchLands(t *testing.T) {
	cases := []struct {
		name string
		arm  func(t *testing.T, c *cluster.Cluster, f *Framework)
	}{
		{"threshold scale-out path", func(t *testing.T, c *cluster.Cluster, f *Framework) {
			paperPolicy(f).scaleOut(cluster.App, "test launch")
		}},
		{"repair path", func(t *testing.T, c *cluster.Cluster, f *Framework) {
			for c.KillVM(cluster.App) != "" {
			}
			f.repairTier(cluster.App)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := twoAppCluster(t)
			cfg := DefaultConfig(EC2)
			f := New(c, cfg)
			// A quiet counter saturated before the launch (e.g. while the
			// tier idled or sat dark awaiting repair).
			p := paperPolicy(f)
			p.below[cluster.App] = cfg.SustainIn
			tc.arm(t, c, f)
			c.Eng.RunUntil(c.Eng.Now() + 10*des.Second) // past the 5 s test PrepDelay
			if got := p.below[cluster.App]; got != 0 {
				t.Fatalf("below counter survived the launch landing: %d (want 0)", got)
			}
			// The very next decision tick must not drain the new VM.
			p.decideTier(cluster.App, c.TierCPU(cluster.App))
			if got := countKind(f.Events(), ScaleIn, cluster.App); got != 0 {
				t.Fatalf("scale-in fired on the first post-ready tick (flap): %v", f.Events())
			}
		})
	}
}

// TestScaleInAfterRepairPathScaleOut drives the full repair sequence:
// the app tier goes dark mid-run, the repair path re-provisions it, a
// second VM arrives outside the framework's own actions, and any
// scale-in must wait a full sustained quiet window measured after the
// repair lands — not act on quiet ticks counted against the dead tier.
func TestScaleInAfterRepairPathScaleOut(t *testing.T) {
	c := twoAppCluster(t) // engine now at 30 s
	cfg := DefaultConfig(EC2)
	f := New(c, cfg)
	f.Start()
	defer f.Stop()

	// Kill both app VMs at 35 s: the tier goes dark and only the repair
	// path can bring it back (~41 s with the 5 s test PrepDelay).
	c.Eng.At(35*des.Second, func() {
		for c.KillVM(cluster.App) != "" {
		}
	})
	// A second VM appears outside the framework's own actions (an
	// operator, or another controller's leftovers) at 65 s, making the
	// tier eligible for scale-in again.
	c.Eng.At(65*des.Second, func() { c.AddVM(cluster.App, nil) })
	c.Eng.RunUntil(200 * des.Second)

	var repairReady des.Time
	for _, e := range f.Events() {
		if e.Kind == Repair && e.Tier == cluster.App {
			repairReady = e.Time
		}
	}
	if repairReady == 0 {
		t.Fatal("repair path never fired for the dark app tier")
	}
	// Sustained quiet must be re-measured on the repaired configuration:
	// no scale-in may land before SustainIn checks after the repair. The
	// decision tick at the ready instant itself is the first quiet
	// measurement (the ready callback fires before the same-time tick),
	// so the window closes SustainIn-1 ticks later.
	minIn := repairReady + des.Time(cfg.SustainIn-1)*cfg.CheckEvery
	for _, e := range f.Events() {
		if e.Kind == ScaleIn && e.Tier == cluster.App && e.Time < minIn {
			t.Fatalf("scale-in at %v s flapped against repair completing at %v s (min legal %v s)",
				e.Time, repairReady, minIn)
		}
	}
	// The idle cluster must still scale in eventually — the fix defers
	// the action, it does not disable it.
	if got := countKind(f.Events(), ScaleIn, cluster.App); got == 0 {
		t.Fatal("scale-in never fired on the idle cluster after the full quiet window")
	}
}

// TestSLATriggerFiresOncePerCooldown pins the decideSLA suppression
// behavior on back-to-back ticks: a tail breach sustained across many
// consecutive decision ticks arms exactly one launch until that launch
// completes and its cooldown expires — repeated ticks must neither
// double-launch nor re-audit the suppressed trigger every tick.
func TestSLATriggerFiresOncePerCooldown(t *testing.T) {
	c := testCluster(1)
	cfg := DefaultConfig(EC2)
	cfg.SLATarget = 0.2
	cfg.SLAPercentile = 95
	f := New(c, cfg)
	p := paperPolicy(f)

	// Saturate the sustain counter and hand decideSLA a breaching tail
	// (1000 ms >> the 200 ms target) on back-to-back ticks. Start past
	// the out-cooldown so the first breach is genuinely eligible to fire.
	c.Eng.RunUntil(30 * des.Second)
	p.slaAbove = cfg.SustainOut
	p.decideSLA(1.0)
	if got := f.triggers; got != 1 {
		t.Fatalf("first breaching tick: want 1 trigger, got %d", got)
	}
	launches := countKind(f.Events(), ScaleOut, cluster.App) + countKind(f.Events(), ScaleOut, cluster.DB)
	if launches != 1 {
		t.Fatalf("first breaching tick: want 1 scale-out log entry, got %d", launches)
	}

	// Back-to-back ticks while the launch is pending: the sustain counter
	// rebuilds, but the pending guard must hold the fire.
	for i := 0; i < 10; i++ {
		c.Eng.RunUntil(c.Eng.Now() + des.Second)
		p.decideSLA(1.0)
	}
	if got := f.triggers; got != 1 {
		t.Fatalf("pending window: trigger double-fired (%d triggers)", got)
	}
	if got := f.cooldownSkips; got != 1 {
		t.Fatalf("suppressed episode should audit exactly once, got %d cooldown skips", got)
	}
}
