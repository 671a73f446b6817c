package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"

	"conscale/internal/admission"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/experiment"
	"conscale/internal/forensics"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// outcome is what one run of a workload reports, whichever entry point
// produced it: the request ledger, the simulated statistics, and the
// SHA-256 of the client-observed timeline CSV (the repo's byte-identity
// surface).
type outcome struct {
	// Issued is the number of requests the generator sent; 0 where the
	// entry point does not report it (experiment.Run returns only
	// completions).
	Issued int64
	// OK and Errors are successful and failed completions; Sheds is the
	// part of Errors that an admission policy refused.
	OK, Errors, Sheds int64
	// Events is the DES event count (0 where the entry point hides its
	// engine).
	Events uint64
	// P99 is the post-warm-up client p99 in simulated seconds.
	P99 float64
	// SimSeconds is the simulated trace length.
	SimSeconds float64
	// Actions and VMs are the controller action count and the final VM
	// count across all cells; Estimates the number of per-server SCT
	// estimates held at the end (0 where the entry point does not say).
	Actions, VMs, Estimates int
	// Hash is the hex SHA-256 of the timeline CSV.
	Hash string
}

// resolved is the number of simulated requests the run brought to an
// outcome (ok + failed + shed) — the denominator of every per-request
// metric.
func (o outcome) resolved() int64 { return o.OK + o.Errors }

// spec is one benchmark workload: a named set of inputs derived from the
// seed and run through one of the product's own entry points. Exactly one
// of paper and scale is set; it builds the config value handed to
// experiment.Run or experiment.RunScale at full size.
type spec struct {
	name  string
	why   string
	paper func(seed uint64) experiment.RunConfig
	scale func(seed uint64) experiment.ScaleConfig
	// armed marks the paper workload with the observers on.
	armed bool
}

// paperCell reports whether the workload runs the paper cell: the two
// that do must produce the same timeline.
func (w *spec) paperCell() bool { return w.paper != nil }

// config returns the full-size config; its JSON is hashed into the
// output stamp.
func (w *spec) config(seed uint64) any {
	if w.paperCell() {
		return w.paper(seed)
	}
	return w.scale(seed)
}

// run executes the workload (dur 0 = full size; the warm-up passes one
// simulated second) and returns a summariser. Summarising — hashing the
// timeline — happens after the timed region, and holding the closure
// keeps the result referenced for the live-heap reading.
func (w *spec) run(seed uint64, dur des.Time) func() outcome {
	if w.paperCell() {
		return runPaper(w.paper(seed), dur)
	}
	return runScale(w.scale(seed), dur)
}

// The four workloads. Sizes are the ISSUE's: the paper's 7 500-user
// 720 s cell bare and fully observed, the 1M-client streaming tier, and a
// 100k-client overload that sheds ~11 % of its requests.
var workloads = []spec{
	{
		name:  "paper_bare",
		why:   "paper cell, 7500 closed-loop users, 720 sim-s, no observer: request path, 50 ms metrics, sct and scaling do all the work",
		paper: func(seed uint64) experiment.RunConfig { return paperConfig(seed, false) },
	},
	{
		name:  "paper_armed",
		why:   "same cell with tracing 1/64, telemetry, forensics and twin armed: the only workload where the observer layers and submit wrappers work",
		paper: func(seed uint64) experiment.RunConfig { return paperConfig(seed, true) },
		armed: true,
	},
	{
		name:  "scale_1m",
		why:   "1M streaming open-loop clients over 17 striper shards, 30 sim-s: O(1) client state, P2 tails, cross-shard sends; closed loop and sample storage idle",
		scale: scale1MConfig,
	},
	{
		name:  "overload_shed_100k",
		why:   "100k clients, big-spike, paper-sized cells, priority admission on web and app, controller.Runtime: deep queues and ~11 % of requests on the shed path",
		scale: overloadConfig,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// paperConfig is the paper's evaluation cell (ConScale on the "large
// variations" trace) with every observer at its committed default; armed
// adds the benchreport armed set.
func paperConfig(seed uint64, armed bool) experiment.RunConfig {
	cfg := experiment.DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
	cfg.Seed = seed
	if armed {
		cfg.Tracing = &trace.Config{SampleRate: 1.0 / 64}
		cfg.Telemetry = &experiment.TelemetryOptions{}
		cfg.Forensics = &forensics.Config{}
		cfg.Twin = &twin.Config{}
	}
	return cfg
}

func scale1MConfig(seed uint64) experiment.ScaleConfig {
	cfg := experiment.DefaultScaleConfig(scaling.ConScale, 1_000_000)
	cfg.Seed = seed
	cfg.Duration = 30 * des.Second
	cfg.Workers = 1
	return cfg
}

// overloadSpec is the frontier's Pareto-dominant shedder (EXPERIMENTS.md,
// admission frontier).
const overloadSpec = "priority:cap=300,browse=75"

func overloadConfig(seed uint64) experiment.ScaleConfig {
	acfg, err := admission.Parse(overloadSpec)
	if err != nil {
		panic(err) // a constant spec: failing to parse is a bug
	}
	cell := cluster.DefaultConfig()
	return experiment.ScaleConfig{
		Controller: "target-tracking-sct",
		Admission:  map[cluster.Tier]admission.Config{cluster.Web: acfg, cluster.App: acfg},
		CellConfig: &cell,
		Clients:    100_000,
		Cells:      16,
		Duration:   120 * des.Second,
		Seed:       seed,
		TraceName:  workload.BigSpike,
		ThinkTime:  3,
		Workers:    1,
	}
}

func runPaper(cfg experiment.RunConfig, dur des.Time) func() outcome {
	if dur > 0 {
		cfg.Duration = dur
	}
	res := experiment.Run(cfg)
	return func() outcome { return paperOutcome(res, cfg.Duration) }
}

// paperOutcome reads the ledger off a RunResult. Run reports goodput and
// the failed fraction of completions, so the failed count is recovered
// from the two.
func paperOutcome(res *experiment.RunResult, dur des.Time) outcome {
	var buf bytes.Buffer
	if err := experiment.WriteTimelineCSV(&buf, res); err != nil {
		panic(err) // bytes.Buffer writes do not fail
	}
	completed := int64(res.Goodput)
	if res.ErrorRate > 0 && res.ErrorRate < 1 {
		completed = int64(math.Round(float64(res.Goodput) / (1 - res.ErrorRate)))
	}
	vms := 0
	if n := len(res.VMs); n > 0 {
		vms = res.VMs[n-1]
	}
	return outcome{
		OK:         int64(res.Goodput),
		Errors:     completed - int64(res.Goodput),
		Sheds:      int64(res.Sheds),
		P99:        res.P99,
		SimSeconds: float64(dur),
		Actions:    len(res.Events),
		VMs:        vms,
		Estimates:  len(res.FinalEstimates),
		Hash:       hashBytes(buf.Bytes()),
	}
}

func runScale(cfg experiment.ScaleConfig, dur des.Time) func() outcome {
	if dur > 0 {
		cfg.Duration = dur
	}
	res := experiment.RunScale(cfg)
	return func() outcome {
		var buf bytes.Buffer
		experiment.WriteScaleTimelineCSV(&buf, res)
		return outcome{
			Issued:     res.Stream.Issued,
			OK:         res.Stream.OK,
			Errors:     res.Stream.Errors,
			Sheds:      int64(res.Sheds),
			Events:     res.Events,
			P99:        res.P99,
			SimSeconds: float64(res.Duration),
			Actions:    res.ScaleActions,
			VMs:        res.VMs,
			Hash:       hashBytes(buf.Bytes()),
		}
	}
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
