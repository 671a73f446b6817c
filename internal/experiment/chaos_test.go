package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"conscale/internal/chaos"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/workload"
)

// TestEmptyScheduleIsNoOp is the no-op property: arming an injector with
// an empty schedule must leave the run bit-identical to one with no
// injector at all — same timeline, same tails, same VM series.
func TestEmptyScheduleIsNoOp(t *testing.T) {
	plain := Run(shortRun(scaling.ConScale, workload.LargeVariations, 1))
	cfg := shortRun(scaling.ConScale, workload.LargeVariations, 1)
	cfg.Chaos = chaos.NewSchedule()
	armed := Run(cfg)

	if !reflect.DeepEqual(plain.Timeline, armed.Timeline) {
		t.Fatal("empty schedule changed the timeline")
	}
	if !reflect.DeepEqual(plain.VMs, armed.VMs) {
		t.Fatal("empty schedule changed the VM series")
	}
	if plain.P99 != armed.P99 || plain.P95 != armed.P95 || plain.Goodput != armed.Goodput {
		t.Fatalf("empty schedule changed tails: %v/%v vs %v/%v",
			plain.P95, plain.P99, armed.P95, armed.P99)
	}
	if len(armed.FaultWindows) != 0 {
		t.Fatalf("empty schedule produced %d windows", len(armed.FaultWindows))
	}
}

// TestChaosRunDeterministic: same (seed, schedule, trace, controller) must
// produce byte-identical timeline CSVs.
func TestChaosRunDeterministic(t *testing.T) {
	build := func() *RunResult {
		cfg := shortRun(scaling.ConScale, workload.LargeVariations, 5)
		cfg.Chaos = chaos.NewSchedule(
			chaos.Crash(60, cluster.DB, chaos.PickRandom),
			chaos.Interference(90, 40, cluster.App, chaos.PickRandom, 2.5),
			chaos.Jitter(150, 30, cluster.DB, 50*des.Millisecond),
		)
		return Run(cfg)
	}
	a, b := build(), build()
	var bufA, bufB bytes.Buffer
	if err := WriteTimelineCSV(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelineCSV(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same (seed, schedule) produced different timeline CSVs")
	}
	if !reflect.DeepEqual(a.FaultWindows, b.FaultWindows) {
		t.Fatal("same (seed, schedule) produced different fault windows")
	}
}

// TestChaosCrashRecovery: a whole-tier DB crash mid-run must be repaired
// by the framework, and the system must serve traffic again afterwards.
func TestChaosCrashRecovery(t *testing.T) {
	cfg := shortRun(scaling.ConScale, workload.LargeVariations, 1)
	crashAt := 100 * des.Second
	cfg.Chaos = chaos.NewSchedule(chaos.Crash(crashAt, cluster.DB, chaos.WholeTier))
	res := Run(cfg)

	if len(res.FaultWindows) != 1 {
		t.Fatalf("fault windows = %d, want 1", len(res.FaultWindows))
	}
	repaired := false
	for _, e := range res.Events {
		if e.Kind == scaling.Repair && e.Tier == cluster.DB {
			repaired = true
		}
	}
	if !repaired {
		t.Fatal("no repair event after whole-tier crash")
	}
	// Post-recovery the system serves again: some second after the crash
	// plus preparation period shows throughput.
	recoveredTP := 0.0
	for _, p := range res.Timeline {
		if p.Time > crashAt+30*des.Second && p.Throughput > recoveredTP {
			recoveredTP = p.Throughput
		}
	}
	if recoveredTP < 100 {
		t.Fatalf("post-crash peak throughput = %.0f req/s; system never recovered", recoveredTP)
	}
}

// TestChaosScenarioTableShape: one scenario yields one row per controller
// with activated faults and sane statistics.
func TestChaosScenarioTableShape(t *testing.T) {
	s := only(chaosStudy(1, ShortDuration), "stragglers")
	rows := chaosRows(s.Cells, s.Run(nil))
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 controllers", len(rows))
	}
	wantModes := []scaling.Mode{scaling.EC2, scaling.DCM, scaling.ConScale}
	for i, r := range rows {
		if r.Mode != wantModes[i] {
			t.Fatalf("row %d mode = %v, want %v", i, r.Mode, wantModes[i])
		}
		if r.Scenario != "stragglers" {
			t.Fatalf("row %d scenario = %q", i, r.Scenario)
		}
		if r.Windows == 0 {
			t.Fatalf("row %d: no fault activated", i)
		}
		if r.P99 <= 0 || r.P99 < r.P95 {
			t.Fatalf("row %d: tails p95=%v p99=%v", i, r.P95, r.P99)
		}
	}
	if len(only(chaosStudy(1, ShortDuration), "no-such-scenario").Cells) != 0 {
		t.Fatal("unknown scenario returned cells")
	}
}

// TestChaosScenariosAreDeterministicSchedules: Build with the same inputs
// must return identical schedules for every canonical scenario.
func TestChaosScenariosAreDeterministicSchedules(t *testing.T) {
	for _, sc := range ChaosScenarios() {
		a := sc.Build(3, ShortDuration).Faults()
		b := sc.Build(3, ShortDuration).Faults()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scenario %q schedule not deterministic", sc.Name)
		}
		if len(a) == 0 {
			t.Fatalf("scenario %q generated no faults", sc.Name)
		}
	}
}

// TestRenderChaosOutputs smoke-tests the table and timeline renderers.
func TestRenderChaosOutputs(t *testing.T) {
	rows := []ChaosRow{
		{Scenario: "crashes", Mode: scaling.EC2, P95: 0.5, P99: 1.2, ErrorRate: 0.02, Goodput: 10000, Windows: 3},
		{Scenario: "crashes", Mode: scaling.ConScale, P95: 0.2, P99: 0.4, ErrorRate: 0.01, Goodput: 12000, Windows: 3},
	}
	var buf bytes.Buffer
	renderChaosTable(&buf, rows)
	out := buf.String()
	for _, want := range []string{"crashes", "ec2-autoscaling", "conscale", "1200ms"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}

	cfg := shortRun(scaling.EC2, workload.LargeVariations, 1)
	cfg.Duration = 60 * des.Second
	cfg.Chaos = chaos.NewSchedule(chaos.Jitter(10, 20, cluster.DB, 50*des.Millisecond))
	res := Run(cfg)
	buf.Reset()
	renderChaosTimeline(&buf, "smoke", res)
	if !bytes.Contains(buf.Bytes(), []byte("#")) {
		t.Fatalf("timeline missing fault overlay:\n%s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("edge ->mysql")) {
		t.Fatalf("timeline missing fault listing:\n%s", buf.String())
	}
}
