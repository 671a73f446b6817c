package chaos

import (
	"math"
	"strings"
	"testing"

	"conscale/internal/cluster"
	"conscale/internal/des"
)

func testCluster(seed uint64) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.App = 3
	cfg.DB = 2
	cfg.PrepDelay = 2 * des.Second
	return cluster.New(cfg)
}

func TestScheduleSortsByTime(t *testing.T) {
	s := NewSchedule(
		Crash(30, cluster.DB, 0),
		Jitter(10, 5, cluster.App, 20*des.Millisecond),
		Stragglers(20, 40, 3),
	)
	faults := s.Faults()
	if len(faults) != 3 {
		t.Fatalf("Len = %d", len(faults))
	}
	if faults[0].Kind != NetDelay || faults[1].Kind != SlowBoot || faults[2].Kind != VMCrash {
		t.Fatalf("order = %v %v %v", faults[0].Kind, faults[1].Kind, faults[2].Kind)
	}
}

func TestEmptyScheduleArmsNothing(t *testing.T) {
	c := testCluster(1)
	pending := c.Eng.Pending()
	in := NewInjector(c, NewSchedule(), 42)
	in.Arm()
	if c.Eng.Pending() != pending {
		t.Fatal("empty schedule scheduled events")
	}
	if len(in.Windows()) != 0 {
		t.Fatal("empty schedule produced windows")
	}
}

func TestCrashFaultKillsTargetVM(t *testing.T) {
	c := testCluster(1)
	in := NewInjector(c, NewSchedule(Crash(5, cluster.App, 1)), 42)
	in.Arm()
	c.Eng.RunUntil(10)
	if got := c.ReadyCount(cluster.App); got != 2 {
		t.Fatalf("ReadyCount(App) = %d after crash", got)
	}
	ws := in.Windows()
	if len(ws) != 1 || ws[0].Target != "tomcat2" {
		t.Fatalf("windows = %v", ws)
	}
	if ws[0].Start != 5 || ws[0].End != 5 {
		t.Fatalf("crash window [%v, %v], want instantaneous at 5", ws[0].Start, ws[0].End)
	}
}

func TestCrashWholeTier(t *testing.T) {
	c := testCluster(1)
	in := NewInjector(c, NewSchedule(Crash(5, cluster.DB, WholeTier)), 42)
	in.Arm()
	c.Eng.RunUntil(10)
	if got := c.ReadyCount(cluster.DB); got != 0 {
		t.Fatalf("ReadyCount(DB) = %d after whole-tier crash", got)
	}
	ws := in.Windows()
	if len(ws) != 1 || ws[0].Target != "mysql1,mysql2" {
		t.Fatalf("windows = %v", ws)
	}
}

func TestCrashRandomIsSeedDeterministic(t *testing.T) {
	target := func(seed uint64) string {
		c := testCluster(1)
		in := NewInjector(c, NewSchedule(Crash(5, cluster.App, PickRandom)), seed)
		in.Arm()
		c.Eng.RunUntil(10)
		return in.Windows()[0].Target
	}
	if target(7) != target(7) {
		t.Fatal("same seed picked different targets")
	}
	// Distinct seeds should disagree for at least one of a few tries.
	same := true
	for seed := uint64(0); seed < 8; seed++ {
		if target(seed) != target(1000+seed) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("random target ignores seed")
	}
}

func TestCrashEmptyTierRecordsNoWindow(t *testing.T) {
	c := testCluster(1)
	in := NewInjector(c, NewSchedule(
		Crash(5, cluster.DB, WholeTier),
		Crash(6, cluster.DB, PickRandom),
	), 42)
	in.Arm()
	c.Eng.RunUntil(10)
	if got := len(in.Windows()); got != 1 {
		t.Fatalf("windows = %d, want 1 (second crash found nothing)", got)
	}
}

func TestInterferenceAppliesAndRestores(t *testing.T) {
	c := testCluster(1)
	in := NewInjector(c, NewSchedule(Interference(5, 10, cluster.App, 0, 2.5)), 42)
	in.Arm()
	srv := c.ReadyServers(cluster.App)[0]
	c.Eng.RunUntil(6)
	if got := srv.CPUSlowdown(); got != 2.5 {
		t.Fatalf("slowdown during window = %v", got)
	}
	c.Eng.RunUntil(20)
	if got := srv.CPUSlowdown(); got != 1 {
		t.Fatalf("slowdown after window = %v", got)
	}
}

func TestOverlappingInterferenceComposes(t *testing.T) {
	c := testCluster(1)
	in := NewInjector(c, NewSchedule(
		Interference(5, 20, cluster.App, 0, 2),
		Interference(10, 5, cluster.App, 0, 3),
	), 42)
	in.Arm()
	srv := c.ReadyServers(cluster.App)[0]
	c.Eng.RunUntil(12)
	if got := srv.CPUSlowdown(); got != 6 {
		t.Fatalf("overlapped slowdown = %v, want 6", got)
	}
	c.Eng.RunUntil(18)
	if got := srv.CPUSlowdown(); got != 2 {
		t.Fatalf("slowdown after inner window = %v, want 2", got)
	}
	c.Eng.RunUntil(30)
	if got := srv.CPUSlowdown(); got != 1 {
		t.Fatalf("slowdown after both windows = %v, want 1", got)
	}
}

func TestNetDelayWindowsCompose(t *testing.T) {
	c := testCluster(1)
	in := NewInjector(c, NewSchedule(
		Jitter(5, 20, cluster.DB, 40*des.Millisecond),
		Jitter(10, 5, cluster.DB, 60*des.Millisecond),
	), 42)
	in.Arm()
	near := func(got, want des.Time) bool {
		return math.Abs(float64(got-want)) < 1e-9
	}
	c.Eng.RunUntil(12)
	if got := c.NetDelay(cluster.DB); !near(got, 100*des.Millisecond) {
		t.Fatalf("overlapped delay = %v, want 100ms", got)
	}
	c.Eng.RunUntil(18)
	if got := c.NetDelay(cluster.DB); !near(got, 40*des.Millisecond) {
		t.Fatalf("delay after inner window = %v, want 40ms", got)
	}
	c.Eng.RunUntil(30)
	if got := c.NetDelay(cluster.DB); !near(got, 0) {
		t.Fatalf("delay after both windows = %v, want 0", got)
	}
}

func TestSlowBootWindow(t *testing.T) {
	c := testCluster(1)
	in := NewInjector(c, NewSchedule(Stragglers(5, 10, 4)), 42)
	in.Arm()
	c.Eng.RunUntil(6)
	if got := c.BootFactor(); got != 4 {
		t.Fatalf("boot factor in window = %v", got)
	}
	c.Eng.RunUntil(20)
	if got := c.BootFactor(); got != 1 {
		t.Fatalf("boot factor after window = %v", got)
	}
}

func TestOnActivateCallback(t *testing.T) {
	c := testCluster(1)
	in := NewInjector(c, NewSchedule(
		Crash(5, cluster.App, 0),
		Jitter(8, 4, cluster.DB, 10*des.Millisecond),
	), 42)
	var seen []Window
	in.OnActivate(func(w Window) { seen = append(seen, w) })
	in.Arm()
	c.Eng.RunUntil(20)
	if len(seen) != 2 {
		t.Fatalf("callback fired %d times", len(seen))
	}
	if seen[0].Fault.Kind != VMCrash || seen[1].Fault.Kind != NetDelay {
		t.Fatalf("callback order wrong: %v, %v", seen[0].Fault.Kind, seen[1].Fault.Kind)
	}
}

func TestWindowString(t *testing.T) {
	cases := []struct {
		w    Window
		want string
	}{
		{Window{Fault: Crash(5, cluster.DB, 0), Start: 5, End: 5, Target: "mysql1"}, "crash mysql1"},
		{Window{Fault: Interference(5, 10, cluster.App, 0, 2.5), Start: 5, End: 15, Target: "tomcat1"}, "interference x2.5 on tomcat1"},
		{Window{Fault: Jitter(5, 10, cluster.DB, 80*des.Millisecond), Start: 5, End: 15}, "+80ms on edge ->mysql"},
		{Window{Fault: Stragglers(0, 100, 6), Start: 0, End: 100}, "boots x6.0 slower"},
	}
	for _, tc := range cases {
		if got := tc.w.String(); !strings.Contains(got, tc.want) {
			t.Errorf("String() = %q, want containing %q", got, tc.want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		VMCrash: "vm-crash", CPUInterference: "cpu-interference",
		NetDelay: "net-delay", SlowBoot: "slow-boot",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestRandomCrashesGenerator(t *testing.T) {
	dur := 600 * des.Second
	s := RandomCrashes(3, 1, dur, cluster.App, cluster.DB)
	if s.Len() == 0 {
		t.Fatal("no crashes generated at 1/min over 10 min")
	}
	for _, f := range s.Faults() {
		if f.Kind != VMCrash || f.At < 0 || f.At >= dur {
			t.Fatalf("bad fault %+v", f)
		}
		if f.Tier != cluster.App && f.Tier != cluster.DB {
			t.Fatalf("crash on unexpected tier %v", f.Tier)
		}
	}
	// Deterministic in the seed.
	again := RandomCrashes(3, 1, dur, cluster.App, cluster.DB)
	if s.Len() != again.Len() {
		t.Fatal("same seed generated different schedules")
	}
	if RandomCrashes(3, 0, dur, cluster.App).Len() != 0 {
		t.Fatal("zero rate generated crashes")
	}
}

func TestInterferenceBurstsGenerator(t *testing.T) {
	dur := 600 * des.Second
	s := InterferenceBursts(3, 5, dur, 30*des.Second, cluster.App, 2)
	if s.Len() != 5 {
		t.Fatalf("bursts = %d, want 5", s.Len())
	}
	for _, f := range s.Faults() {
		if f.Kind != CPUInterference || f.At < 0 || f.At >= dur || f.Factor != 2 {
			t.Fatalf("bad burst %+v", f)
		}
	}
}
