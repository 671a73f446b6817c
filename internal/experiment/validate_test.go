package experiment

import (
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/workload"
)

// TestMatrixRunnersRejectBadInput: each matrix runner returns an error
// naming a bad trace, controller, admission spec or hypothesis id before
// any cell starts. A valid cell sits beside every bad entry. Rejecting
// takes a few dozen allocations, while even a one-second ten-user Run
// takes over 400, so a runner under the bound started no cell.
func TestMatrixRunnersRejectBadInput(t *testing.T) {
	spike := workload.BigSpike
	for _, tc := range []struct {
		name, bad string
		run       func() error
	}{
		{"tournament trace", "no-such-trace", func() error {
			_, err := TournamentStudy(TournamentConfig{Traces: []string{spike, "no-such-trace"}})
			return err
		}},
		{"tournament controller", "no-such-ctrl", func() error {
			_, err := TournamentStudy(TournamentConfig{Controllers: []string{"ec2", "no-such-ctrl"}})
			return err
		}},
		{"tournament tier", "-5", func() error {
			_, err := TournamentStudy(TournamentConfig{Tiers: []int{2500, -5}})
			return err
		}},
		{"episodes trace", "no-such-trace", func() error {
			_, err := EpisodesStudy(EpisodesConfig{Traces: []string{spike, "no-such-trace"}})
			return err
		}},
		{"episodes controller", "no-such-ctrl", func() error {
			_, err := EpisodesStudy(EpisodesConfig{Controllers: []string{"ec2", "no-such-ctrl"}})
			return err
		}},
		{"episodes users", "Users", func() error {
			_, err := EpisodesStudy(EpisodesConfig{Users: -1})
			return err
		}},
		{"frontier trace", "no-such-trace", func() error {
			_, err := RunFrontier(FrontierConfig{Traces: []string{spike, "no-such-trace"}})
			return err
		}},
		{"frontier controller", "no-such-ctrl", func() error {
			_, err := RunFrontier(FrontierConfig{Controllers: []string{"ec2", "no-such-ctrl"}})
			return err
		}},
		{"frontier spec", "codel:target=soon", func() error {
			_, err := RunFrontier(FrontierConfig{Policies: []string{"always", "codel:target=soon"}})
			return err
		}},
		{"frontier unknown policy", "no-such-policy", func() error {
			_, err := RunFrontier(FrontierConfig{Policies: []string{"always", "no-such-policy"}})
			return err
		}},
		{"frontier baseline", "always", func() error {
			_, err := RunFrontier(FrontierConfig{Policies: []string{"queue-cap:cap=300"}})
			return err
		}},
		{"hypothesis id", "no-such-id", func() error {
			_, err := HypothesisStudy(HypothesisConfig{IDs: []string{"twin-steady", "no-such-id"}})
			return err
		}},
		{"hypothesis trace", "no-such-trace", func() error {
			_, err := HypothesisStudy(HypothesisConfig{IDs: []string{"sct-dominance"}, Traces: []string{spike, "no-such-trace"}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(1, func() { err = tc.run() })
			if err == nil {
				t.Fatal("bad input accepted")
			}
			if !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("error %q does not name %q", err, tc.bad)
			}
			if allocs > 200 {
				t.Errorf("rejecting the config took %.0f allocations; a cell must have started", allocs)
			}
		})
	}
}

// TestMatrixDefaultsValidate: the default configs, and zero ones, are
// valid.
func TestMatrixDefaultsValidate(t *testing.T) {
	for name, err := range map[string]error{
		"tournament default": DefaultTournamentConfig().Validate(),
		"episodes default":   DefaultEpisodesConfig().Validate(),
		"frontier default":   DefaultFrontierConfig().Validate(),
		"tournament zero":    TournamentConfig{}.Validate(),
		"episodes zero":      EpisodesConfig{}.Validate(),
		"frontier zero":      FrontierConfig{}.Validate(),
		"hypothesis zero":    HypothesisConfig{}.Validate(),
	} {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestScaleConfigValidate: a scale config's Validate names a
// non-positive client count, each negative size and an unknown mode,
// and passes the default sweep point.
func TestScaleConfigValidate(t *testing.T) {
	if err := DefaultScaleConfig(scaling.ConScale, 10000).Validate(); err != nil {
		t.Fatalf("default: %v", err)
	}
	for bad, set := range map[string]func(*ScaleConfig){
		"Clients":  func(c *ScaleConfig) { c.Clients = 0 },
		"Cells":    func(c *ScaleConfig) { c.Cells = -1 },
		"Duration": func(c *ScaleConfig) { c.Duration = -des.Second },
		"Workers":  func(c *ScaleConfig) { c.Workers = -2 },
		"Mode":     func(c *ScaleConfig) { c.Mode = scaling.Mode(99) },
	} {
		cfg := DefaultScaleConfig(scaling.EC2, 10000)
		set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("bad %s: error %v", bad, err)
		}
	}
}
