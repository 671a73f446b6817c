package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"conscale/internal/experiment"
)

func names(rs []runner) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.name
	}
	return out
}

func TestSelectRunnersAll(t *testing.T) {
	for _, spec := range []string{"all", "ALL", " all "} {
		rs, err := selectRunners(spec)
		if err != nil {
			t.Fatalf("selectRunners(%q): %v", spec, err)
		}
		// "all" selects every runner except the heavy ones, which must be
		// requested by id.
		if len(rs) != len(runners)-len(heavyRunners) {
			t.Fatalf("selectRunners(%q) picked %d runners, want %d", spec, len(rs), len(runners)-len(heavyRunners))
		}
		for _, r := range rs {
			if heavyRunners[r.name] {
				t.Fatalf("selectRunners(%q) included heavy runner %q", spec, r.name)
			}
		}
	}
}

// TestSelectRunnersHeavyExplicit: heavy runners stay reachable by id.
func TestSelectRunnersHeavyExplicit(t *testing.T) {
	rs, err := selectRunners("scale")
	if err != nil {
		t.Fatalf("selectRunners(scale): %v", err)
	}
	if got := names(rs); len(got) != 1 || got[0] != "scale" {
		t.Fatalf("picked %v, want [scale]", got)
	}
	for name := range heavyRunners {
		found := false
		for _, r := range runners {
			if r.name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("heavyRunners names %q, which is not in the runner table", name)
		}
	}
}

func TestParseScaleSweep(t *testing.T) {
	seedFlag(t, 7)
	cfgs, err := scaleSweep()
	if err != nil {
		t.Fatalf("scaleSweep: %v", err)
	}
	// Defaults: 3 client tiers × 3 modes, ascending client order.
	if len(cfgs) != 9 {
		t.Fatalf("got %d sweep points, want 9", len(cfgs))
	}
	if cfgs[0].Clients != 10000 || cfgs[len(cfgs)-1].Clients != 1000000 {
		t.Fatalf("sweep not ascending: first=%d last=%d", cfgs[0].Clients, cfgs[len(cfgs)-1].Clients)
	}
	for _, cfg := range cfgs {
		if cfg.Seed != 7 || cfg.Cells <= 0 || cfg.Duration <= 0 || !cfg.Telemetry {
			t.Fatalf("bad sweep point: %+v", cfg)
		}
	}
}

func TestSelectRunnersSubset(t *testing.T) {
	// Order follows the runner table, not the spec; duplicates collapse.
	rs, err := selectRunners("table1, fig3,fig3")
	if err != nil {
		t.Fatalf("selectRunners: %v", err)
	}
	got := names(rs)
	if len(got) != 2 || got[0] != "fig3" || got[1] != "table1" {
		t.Fatalf("picked %v, want [fig3 table1]", got)
	}
}

func TestSelectRunnersUnknown(t *testing.T) {
	_, err := selectRunners("fig3,figx,nope")
	if err == nil {
		t.Fatal("unknown ids must be rejected")
	}
	msg := err.Error()
	for _, want := range []string{"figx", "nope"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name unknown id %q", msg, want)
		}
	}
	// The error must list every available id so the user can self-correct.
	for _, r := range runners {
		if !strings.Contains(msg, r.name) {
			t.Errorf("error %q does not list available id %q", msg, r.name)
		}
	}
}

func TestSelectRunnersEmpty(t *testing.T) {
	for _, spec := range []string{"", " , ,"} {
		if _, err := selectRunners(spec); err == nil {
			t.Errorf("selectRunners(%q) should fail", spec)
		}
	}
}

func TestRunnerNamesUniqueAndLower(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range runners {
		if r.name != strings.ToLower(r.name) {
			t.Errorf("runner id %q is not lower-case", r.name)
		}
		if seen[r.name] {
			t.Errorf("duplicate runner id %q", r.name)
		}
		seen[r.name] = true
	}
	if !seen["blame"] {
		t.Error("blame runner missing from table")
	}
}

// restoreConfigs restores every flag-bound config when the test ends.
func restoreConfigs(t *testing.T) {
	tc, ec, fc, hc, sc := tournament, episodes, frontier, hypothesis, scale
	clients, modes, workers := scaleClients, scaleModes, scaleWorkers
	t.Cleanup(func() {
		tournament, episodes, frontier, hypothesis, scale = tc, ec, fc, hc, sc
		scaleClients, scaleModes, scaleWorkers = clients, modes, workers
	})
}

// setFlag sets a flag as the command line would, until the test ends.
func setFlag(t *testing.T, name, value string) error {
	restoreConfigs(t)
	return flag.Set(name, value)
}

// seedFlag binds -seed as main does, until the test ends.
func seedFlag(t *testing.T, seed uint64) {
	restoreConfigs(t)
	seedConfigs(seed)
}

// TestParseHypothesis: the hypothesis flags land in the config, names
// lower-cased, and its Validate rejects what the runner would.
func TestParseHypothesis(t *testing.T) {
	seedFlag(t, 9)
	if hypothesis.BaseSeed != 9 || len(hypothesis.IDs) != 0 || len(hypothesis.Traces) != 0 || hypothesis.Validate() != nil {
		t.Fatalf("defaults: %+v", hypothesis)
	}
	if err := setFlag(t, "hypothesis-ids", "twin-steady, DRIFT-CALM"); err != nil {
		t.Fatal(err)
	}
	if err := setFlag(t, "hypothesis-traces", "big-spike"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hypothesis.IDs, []string{"twin-steady", "drift-calm"}) || len(hypothesis.Traces) != 1 {
		t.Fatalf("parsed: %+v", hypothesis)
	}
	if err := hypothesis.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]string{
		{"hypothesis-ids", "nope"},
		{"hypothesis-traces", "not-a-trace"},
		{"hypothesis-seeds", "-1"},
	} {
		if err := setFlag(t, bad[0], bad[1]); err != nil {
			t.Fatal(err)
		}
		if hypothesis.Validate() == nil {
			t.Errorf("-%s=%s must be rejected", bad[0], bad[1])
		}
	}
}

func TestParseScaleSweepWorkers(t *testing.T) {
	if err := setFlag(t, "scale-workers", "1, 2,4"); err != nil {
		t.Fatal(err)
	}
	cfgs, err := scaleSweep()
	if err != nil {
		t.Fatalf("scaleSweep: %v", err)
	}
	// 3 client tiers × 3 modes × 3 worker counts, workers innermost so a
	// scaling curve reads as consecutive rows of the same cell.
	if len(cfgs) != 27 {
		t.Fatalf("got %d sweep points, want 27", len(cfgs))
	}
	if cfgs[0].Workers != 1 || cfgs[1].Workers != 2 || cfgs[2].Workers != 4 {
		t.Fatalf("worker counts not innermost: %d,%d,%d", cfgs[0].Workers, cfgs[1].Workers, cfgs[2].Workers)
	}
	if cfgs[0].Clients != cfgs[2].Clients || cfgs[0].Mode != cfgs[2].Mode {
		t.Fatalf("curve rows differ beyond workers: %+v vs %+v", cfgs[0], cfgs[2])
	}
	for _, bad := range []string{"0", "-2", "x", " , "} {
		if setFlag(t, "scale-workers", bad) == nil {
			t.Errorf("-scale-workers=%q must be rejected", bad)
		}
	}
}

// TestUnsetFlagsTakeLibraryDefaults: with every size and list flag at 0 or
// empty and -seed 1, the flag-bound configs are the library defaults.
func TestUnsetFlagsTakeLibraryDefaults(t *testing.T) {
	seedFlag(t, 1)
	if tc := tournament.WithDefaults(); !reflect.DeepEqual(tc, experiment.DefaultTournamentConfig()) {
		t.Errorf("tournament: %+v", tc)
	}
	if ec := episodes.WithDefaults(); !reflect.DeepEqual(ec, experiment.DefaultEpisodesConfig()) {
		t.Errorf("episodes: %+v", ec)
	}
	if fc := frontier.WithDefaults(); !reflect.DeepEqual(fc, experiment.DefaultFrontierConfig()) {
		t.Errorf("frontier: %+v", fc)
	}
	if !reflect.DeepEqual(hypothesis, experiment.HypothesisConfig{BaseSeed: 1}) {
		t.Errorf("hypothesis: %+v", hypothesis)
	}
	cfgs, err := scaleSweep()
	if err != nil {
		t.Fatal(err)
	}
	def := experiment.DefaultScaleConfig(cfgs[0].Mode, cfgs[0].Clients)
	if cfgs[0].Seed != def.Seed || cfgs[0].Cells != def.Cells || cfgs[0].Duration != def.Duration {
		t.Errorf("scale: %d cells, %v s; library default %d cells, %v s",
			cfgs[0].Cells, cfgs[0].Duration, def.Cells, def.Duration)
	}
}

// TestCLIFailedWriteFails: a results file the disk refuses fails the
// run with exit status 1 and names the file, instead of reporting it
// written.
func TestCLIFailedWriteFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	const name = "scale_timeline_conscale_10000.csv"
	if err := os.Symlink("/dev/full", filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
	code, out := cli(t, "-run", "scale", "-scale-clients", "10000", "-scale-modes", "conscale",
		"-scale-duration", "30", "-out", dir)
	if code != 1 || !strings.Contains(out, name) || strings.Contains(out, "wrote "+filepath.Join(dir, name)) {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

// TestCLIChecksBeforeRunning: a bad input of any picked runner fails
// with exit status 2, and a -cpuprofile that cannot be created with
// exit status 1, before the first runner writes a file.
func TestCLIChecksBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		code int
		want string
		args []string
	}{
		{2, "nope", []string{"-run", "fig9,tournament", "-tournament-traces", "nope"}},
		{1, "no-such-dir", []string{"-run", "fig9", "-cpuprofile", filepath.Join(t.TempDir(), "no-such-dir", "cpu.pprof")}},
	} {
		dir := t.TempDir()
		code, out := cli(t, append(tc.args, "-out", dir)...)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Fatalf("%v: exit %d, output:\n%s", tc.args, code, out)
		}
		if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
			t.Fatalf("%v: -out holds %d files (%v), want none", tc.args, len(files), err)
		}
	}
}
