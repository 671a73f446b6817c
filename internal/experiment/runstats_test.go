package experiment

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/workload"
)

// The run-statistics golden pins the client statistics Run derives from
// the whole request stream — the percentiles, the mean, the error rate
// and the goodput — at full float precision, for three cells: the armed
// cell, a bare paper-sized cell whose warm-up filter drops completions,
// and the request-path chaos cell, which fails and sheds. It was written
// by the commit before Run stopped retaining the client sample stream,
// so it compares each later commit with that one. Regenerate (only if
// the simulator's trajectory legitimately changes) with:
//
//	GEN_RUNSTATS_GOLDEN=1 go test ./internal/experiment -run TestRunStatsGolden

// warmupCellSkip is the warm-up span warmupCell excludes from its tails.
const warmupCellSkip = 30 * des.Second

// warmupCell is the paper's bare evaluation cell (7 500 users, ConScale on
// the large-variations trace), shortened to 240 sim-s, with a 30 s
// warm-up excluded from the statistics.
func warmupCell() RunConfig {
	cfg := DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
	cfg.Duration = 240 * des.Second
	cfg.WarmupSkip = warmupCellSkip
	return cfg
}

// runStats renders a run's client statistics so that two renderings are
// equal only when every value's bits are.
func runStats(r *RunResult) string {
	return fmt.Sprintf("p50=%s p95=%s p99=%s mean_rt=%s error_rate=%s goodput=%d\n",
		exactFloat(r.P50), exactFloat(r.P95), exactFloat(r.P99),
		exactFloat(r.MeanRT), exactFloat(r.ErrorRate), r.Goodput)
}

// TestRunStatsGolden pins Run's client statistics on the three cells and
// checks the warm-up filter had something to filter: the warm-up cell
// completed requests successfully before WarmupSkip.
func TestRunStatsGolden(t *testing.T) {
	t.Parallel()
	cells := []struct {
		name string
		cfg  RunConfig
	}{
		{"armed", armedCell()},
		{"warmup", warmupCell()},
		{"chaos", faultCell()},
	}
	cfgs := make([]RunConfig, len(cells))
	for i, c := range cells {
		cfgs[i] = c.cfg
	}
	results := RunMany(cfgs)

	early := 0.0
	for _, p := range results[1].Timeline {
		if p.Time+des.Second <= warmupCellSkip {
			early += p.Throughput
		}
	}
	if early < 1 {
		t.Fatalf("the warm-up cell completed %v requests successfully before %v s: the filter drops nothing", early, float64(warmupCellSkip))
	}

	var b strings.Builder
	for i, c := range cells {
		fmt.Fprintf(&b, "%s %s", c.name, runStats(results[i]))
	}
	got := b.String()
	const file = "testdata/run_stats.txt"
	if os.Getenv("GEN_RUNSTATS_GOLDEN") != "" {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("run statistics diverged from the committed %s:\ngot\n%swant\n%s", file, got, want)
	}
}
