package experiment

import (
	"io"

	"conscale/internal/cluster"
	"conscale/internal/scaling"
)

// Study is one experiment that runs a list of RunConfigs: its cells, in
// the order their results come back, and the fold that turns those
// results into what the study prints and writes. Fig. 1/5/6/10/11,
// Table I, the ablations, chaos, blame, SLO detection, the tournament,
// episodes and the hypotheses are each a Study, and Run is the one path
// that runs them. Building a study runs nothing, so a caller can build
// every study it picked, and so check their inputs, before the first
// cell starts.
type Study struct {
	Cells []Cell
	// Fold turns the results, one per cell in cell order, into the
	// study's summary and artifacts.
	Fold func(cells []Cell, results []*RunResult) Outcome
}

// Cell is one run of a study: the key its fold labels it by and the
// config it runs, seed included.
type Cell struct {
	Key    string
	Config RunConfig
	// Train marks a cell that runs DCM's trained profile: TrainDCM at
	// the cell's seed on the default cluster, installed in its Framework
	// when the study runs.
	Train bool
	// Scrape (if non-empty) names the file the cell's OpenMetrics scrape
	// timeline streams to while it runs. The cell must arm Telemetry.
	Scrape string
}

// Outcome is a folded study: what it prints and what it writes.
type Outcome struct {
	// Summary prints the human-readable result.
	Summary func(w io.Writer) error
	// Artifacts are the study's results files, in writing order.
	Artifacts []Artifact
	// Err is a failure the results show (a gated hypothesis that did not
	// hold), reported once the artifacts are written.
	Err error
}

// Run runs every cell on its own engine, in parallel up to MaxWorkers,
// and returns the results in cell order. Before the first cell starts it
// trains one DCM profile per seed its Train cells need, and asks open for
// each Scrape's writer; a nil open keeps no scrape timeline.
func (s Study) Run(open func(name string) io.Writer) []*RunResult {
	profiles := map[uint64]scaling.DCMProfile{}
	cfgs := make([]RunConfig, len(s.Cells))
	for i, c := range s.Cells {
		cfg := c.Config
		if c.Train {
			p, ok := profiles[cfg.Seed]
			if !ok {
				p = TrainDCM(cfg.Seed, cluster.DefaultConfig())
				profiles[cfg.Seed] = p
			}
			f := scaling.DefaultConfig(cfg.Mode)
			if cfg.Framework != nil {
				f = *cfg.Framework
			}
			f.Profile = p
			cfg.Framework = &f
		}
		if c.Scrape != "" && open != nil {
			t := *cfg.Telemetry
			t.OpenMetrics = open(c.Scrape)
			cfg.Telemetry = &t
		}
		cfgs[i] = cfg
	}
	return RunMany(cfgs)
}

// paperRun is the paper's evaluation run of mode on a trace at seed.
func paperRun(mode scaling.Mode, traceName string, seed uint64) RunConfig {
	cfg := DefaultRunConfig(mode, traceName)
	cfg.Seed = seed
	return cfg
}
