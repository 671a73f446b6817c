package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/trace"
)

// ctrlRun returns the run every registered policy is pinned on: a 240 s
// Big Spike that starts under-allocated (app threads 14, db conns 4), so
// scale-out, scale-in, cooldown suppression, SCT pool sizing, the
// under-allocation escape and the DCM profile all fire, with tracing
// armed for the audit trail.
func ctrlRun(ctrl string) RunConfig {
	fcfg := profiledConfig(scaling.EC2, AnalyticDCMProfile(cluster.DefaultConfig()))
	shortHorizonSCT(fcfg, 60*des.Second)
	ccfg := cluster.DefaultConfig()
	ccfg.AppThreads = 14
	ccfg.DBConns = 4
	return RunConfig{
		TraceName:  "big-spike",
		MaxUsers:   5500,
		Duration:   240 * des.Second,
		Seed:       7,
		ThinkTime:  3,
		Controller: ctrl,
		Cluster:    &ccfg,
		Framework:  fcfg,
		Tracing:    &trace.Config{},
	}
}

// decisionLog serializes the parts of a run that a controller influences
// — the scaling event log, the per-second VM counts, the soft-resource
// history, the client-observed timeline, and the tails — into a
// comparable blob.
func decisionLog(t *testing.T, r *RunResult) string {
	t.Helper()
	blob, err := json.Marshal(struct {
		Events      []scaling.Event
		VMs         []int
		SoftHistory [][2]int
		Timeline    interface{}
	}{r.Events, r.VMs, r.SoftHistory, r.Timeline})
	if err != nil {
		t.Fatalf("marshal decision log: %v", err)
	}
	return fmt.Sprintf("%s\n%.9f/%.9f/%.9f\n", blob, r.P50, r.P95, r.P99)
}

// auditCSV renders a run's audit trail the way `-run blame` writes it.
func auditCSV(t *testing.T, r *RunResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteAuditCSV(&buf, r.Audit); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// pinnedRuns caches the first ctrlRun of each policy so the golden and
// determinism tests share it.
var pinnedRuns sync.Map // name → *RunResult

func pinnedRun(name string) *RunResult {
	if r, ok := pinnedRuns.Load(name); ok {
		return r.(*RunResult)
	}
	r, _ := pinnedRuns.LoadOrStore(name, Run(ctrlRun(name)))
	return r.(*RunResult)
}

// TestControllersMatchGolden pins every registered policy against the
// decision log and audit trail committed in testdata/ — written by the
// commit before the control planes were merged, so it compares each
// later commit with that one, not the build with itself. Regenerate
// (only if a policy's trajectory legitimately changes) with:
//
//	GEN_CONTROLLER_GOLDEN=1 go test ./internal/experiment -run TestControllersMatchGolden
func TestControllersMatchGolden(t *testing.T) {
	for _, name := range scaling.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := pinnedRun(name)
			for file, got := range map[string]string{
				"testdata/decision_" + name + ".json": decisionLog(t, r),
				"testdata/audit_" + name + ".csv":     auditCSV(t, r),
			} {
				if os.Getenv("GEN_CONTROLLER_GOLDEN") != "" {
					if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("controller %q diverged from the committed %s", name, file)
				}
			}
		})
	}
}

// TestControllersDeterministic runs every registered controller a second
// time with the same seed and trace and requires an identical decision
// log — the property the tournament's rankings and the audit trail
// depend on. Run under -race this also exercises each controller's
// decision path for data races.
func TestControllersDeterministic(t *testing.T) {
	for _, name := range scaling.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, b := pinnedRun(name), Run(ctrlRun(name))
			if decisionLog(t, b) != decisionLog(t, a) || auditCSV(t, b) != auditCSV(t, a) {
				t.Fatalf("controller %q is not deterministic: same seed produced different decision logs", name)
			}
			if len(a.Timeline) == 0 {
				t.Fatalf("controller %q produced an empty timeline", name)
			}
		})
	}
}

// TestPolicyNameSpellings pins the name-resolution fix: every spelling
// the registry accepts, and the Mode, select the same DCM policy with
// its profile — in Run and, per cell, in RunScale (which used to build
// "DCM" with an empty profile, silently behaving as EC2).
func TestPolicyNameSpellings(t *testing.T) {
	want := decisionLog(t, pinnedRun("dcm"))
	for _, spell := range []func(*RunConfig){
		func(c *RunConfig) { c.Controller = "DCM" },
		func(c *RunConfig) { c.Controller = " dcm " },
		func(c *RunConfig) { c.Controller, c.Mode = "", scaling.DCM },
	} {
		cfg := ctrlRun("")
		spell(&cfg)
		t.Run(fmt.Sprintf("%q/%v", cfg.Controller, cfg.Mode), func(t *testing.T) {
			t.Parallel()
			if got := decisionLog(t, Run(cfg)); got != want {
				t.Fatalf("Controller %q / Mode %v diverged from \"dcm\"", cfg.Controller, cfg.Mode)
			}
		})
	}

	scaleActions := func(ctrl string, mode scaling.Mode) int {
		cfg := DefaultScaleConfig(mode, 8000)
		cfg.Controller = ctrl
		cfg.Cells = 1
		cfg.TraceName = "big-spike"
		cfg.Duration = 60 * des.Second
		cfg.Workers = 1
		cell := cluster.DefaultConfig()
		cell.PrepDelay = 5 * des.Second
		cfg.CellConfig = &cell
		return RunScale(cfg).ScaleActions
	}
	byMode := scaleActions("", scaling.DCM)
	if ec2 := scaleActions("", scaling.EC2); byMode <= ec2 {
		t.Fatalf("scenario too quiet to tell DCM from EC2: %d vs %d actions", byMode, ec2)
	}
	if got := scaleActions("DCM", scaling.EC2); got != byMode {
		t.Fatalf("RunScale Controller \"DCM\" logged %d actions, Mode DCM %d", got, byMode)
	}
}
