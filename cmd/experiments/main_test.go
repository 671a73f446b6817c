package main

import (
	"reflect"
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
	cfgs, err := parseScaleSweep(7)
	if err != nil {
		t.Fatalf("parseScaleSweep: %v", err)
	}
	// Defaults: 3 client tiers × 3 modes, ascending client order.
	if len(cfgs) != 9 {
		t.Fatalf("got %d sweep points, want 9", len(cfgs))
	}
	if cfgs[0].Clients != 10000 || cfgs[len(cfgs)-1].Clients != 1000000 {
		t.Fatalf("sweep not ascending: first=%d last=%d", cfgs[0].Clients, cfgs[len(cfgs)-1].Clients)
	}
	for _, cfg := range cfgs {
		if cfg.Seed != 7 || cfg.Cells <= 0 || cfg.Duration <= 0 {
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

func TestParseHypothesis(t *testing.T) {
	oldIDs, oldTraces, oldSeeds := *hypoIDs, *hypoTraces, *hypoSeeds
	defer func() { *hypoIDs, *hypoTraces, *hypoSeeds = oldIDs, oldTraces, oldSeeds }()

	cfg, err := parseHypothesis(9)
	if err != nil {
		t.Fatalf("parseHypothesis: %v", err)
	}
	if cfg.BaseSeed != 9 || len(cfg.IDs) != 0 || len(cfg.Traces) != 0 {
		t.Fatalf("defaults: %+v", cfg)
	}

	*hypoIDs = "twin-steady, DRIFT-CALM"
	*hypoTraces = "big-spike"
	cfg, err = parseHypothesis(1)
	if err != nil {
		t.Fatalf("parseHypothesis: %v", err)
	}
	if len(cfg.IDs) != 2 || cfg.IDs[1] != "drift-calm" || len(cfg.Traces) != 1 {
		t.Fatalf("parsed: %+v", cfg)
	}

	*hypoIDs = "nope"
	if _, err := parseHypothesis(1); err == nil {
		t.Error("unknown hypothesis id must be rejected")
	}
	*hypoIDs = ""
	*hypoTraces = "not-a-trace"
	if _, err := parseHypothesis(1); err == nil {
		t.Error("unknown trace must be rejected")
	}
	*hypoTraces = ""
	*hypoSeeds = -1
	if _, err := parseHypothesis(1); err == nil {
		t.Error("negative seed count must be rejected")
	}
}

func TestParseScaleSweepWorkers(t *testing.T) {
	old := *scaleWorkers
	defer func() { *scaleWorkers = old }()
	*scaleWorkers = "1, 2,4"
	cfgs, err := parseScaleSweep(1)
	if err != nil {
		t.Fatalf("parseScaleSweep: %v", err)
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
		*scaleWorkers = bad
		if _, err := parseScaleSweep(1); err == nil {
			t.Errorf("-scale-workers=%q must be rejected", bad)
		}
	}
}

// TestUnsetFlagsTakeLibraryDefaults: with every size and list flag at 0 or
// empty, the parsed configs are the library defaults.
func TestUnsetFlagsTakeLibraryDefaults(t *testing.T) {
	tc, err := parseTournament(1)
	if err != nil || !reflect.DeepEqual(tc, experiment.DefaultTournamentConfig()) {
		t.Errorf("tournament: %+v, %v", tc, err)
	}
	ec, err := parseEpisodes(1)
	if err != nil || !reflect.DeepEqual(ec, experiment.DefaultEpisodesConfig()) {
		t.Errorf("episodes: %+v, %v", ec, err)
	}
	fc, err := parseFrontier(1)
	if err != nil || !reflect.DeepEqual(fc, experiment.DefaultFrontierConfig()) {
		t.Errorf("frontier: %+v, %v", fc, err)
	}
	cfgs, err := parseScaleSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	def := experiment.DefaultScaleConfig(cfgs[0].Mode, cfgs[0].Clients)
	if cfgs[0].Cells != def.Cells || cfgs[0].Duration != def.Duration {
		t.Errorf("scale: %d cells, %v s; library default %d cells, %v s",
			cfgs[0].Cells, cfgs[0].Duration, def.Cells, def.Duration)
	}
}
