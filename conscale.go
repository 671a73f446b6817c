// Package conscale is a faithful, self-contained reproduction of
// "Mitigating Large Response Time Fluctuations through Fast Concurrency
// Adapting in Clouds" (Liu, Zhang, Wang, Wei — IEEE IPDPS 2020).
//
// It provides, as a library:
//
//   - a deterministic discrete-event simulator of an n-tier web system
//     (the RUBBoS benchmark on a private cloud: web / app / DB tiers of
//     VM-hosted servers behind least-connection balancers, with bounded
//     thread pools, DB connection pools, synchronous thread-holding RPC,
//     and a multithreading-overhead model);
//   - the paper's online Scatter-Concurrency-Throughput (SCT) model,
//     which estimates each server's rational concurrency range
//     [Qlower, Qupper] from fine-grained (50 ms) measurements;
//   - three scaling frameworks — hardware-only EC2-AutoScaling, the
//     offline-profiled DCM baseline, and the paper's ConScale — sharing
//     one threshold engine;
//   - the six bursty workload traces of the evaluation and a closed-loop
//     user-population generator;
//   - an experiment harness that regenerates every table and figure of
//     the paper's evaluation section.
//
// # Quick start
//
//	cfg := conscale.DefaultClusterConfig()
//	c := conscale.NewCluster(cfg)
//	fw := conscale.NewFramework(c, conscale.DefaultScalingConfig(conscale.ModeConScale))
//	fw.Start()
//	tr := conscale.NewTrace(conscale.TraceLargeVariations, 7500, 720*conscale.Second)
//	gen := conscale.NewGenerator(c.Eng, conscale.NewRand(1), conscale.GeneratorConfig{
//		Trace: tr, ThinkTime: 3,
//	}, c.Submit)
//	gen.Start()
//	c.Eng.RunUntil(720 * conscale.Second)
//	fmt.Printf("p99 = %.0f ms\n", gen.TailLatency(99, 0)*1000)
//
// Everything is seeded and runs in virtual time: a 12-minute evaluation
// completes in a few seconds of wall clock, bit-identically on every run.
package conscale

import (
	"io"

	"conscale/internal/admission"
	"conscale/internal/chaos"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/experiment"
	"conscale/internal/forensics"
	"conscale/internal/metrics"
	"conscale/internal/mgmt"
	"conscale/internal/rng"
	"conscale/internal/rubbos"
	"conscale/internal/scaling"
	"conscale/internal/sct"
	"conscale/internal/telemetry"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// Virtual time.
type (
	// Time is virtual simulation time in seconds.
	Time = des.Time
	// Engine is the discrete-event simulation engine.
	Engine = des.Engine
)

// Time units.
const (
	Millisecond = des.Millisecond
	Second      = des.Second
)

// Randomness.
type (
	// Rand is the deterministic, splittable random source.
	Rand = rng.Source
)

// NewRand returns a seeded random source.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Cluster: the n-tier system under test.
type (
	// Cluster is the simulated n-tier deployment.
	Cluster = cluster.Cluster
	// ClusterConfig configures topology, soft resources, and VM shapes.
	ClusterConfig = cluster.Config
	// Tier identifies web, app, or DB tier.
	Tier = cluster.Tier
)

// Tier constants.
const (
	TierWeb = cluster.Web
	TierApp = cluster.App
	TierDB  = cluster.DB
)

// NewCluster builds the initial topology on a fresh engine.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// DefaultClusterConfig returns the paper's evaluation setup (1/1/1,
// soft resources 1000-60-40, 1-core VMs, leastconn, 15 s VM preparation).
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// RUBBoS application model.
type (
	// Mix selects the RUBBoS workload mode.
	Mix = rubbos.Mix
	// RubbosWorkload is a calibrated servlet mix.
	RubbosWorkload = rubbos.Workload
)

// Workload mixes.
const (
	ReadWrite = rubbos.ReadWrite
)

// NewRubbosWorkload builds the calibrated servlet mix for a mode and
// dataset scale.
func NewRubbosWorkload(mix Mix, datasetScale float64) *RubbosWorkload {
	return rubbos.NewWorkload(mix, datasetScale)
}

// Traces and load generation.
type (
	// Trace is a time-varying concurrent-user curve.
	Trace = workload.Trace
	// Generator replays a trace as a closed-loop user population.
	Generator = workload.Generator
	// GeneratorConfig configures the population.
	GeneratorConfig = workload.GeneratorConfig
)

// Bursty trace names of the paper's Fig. 9 (TraceNames lists all six).
const (
	TraceLargeVariations = workload.LargeVariations
	TraceSlowlyVarying   = workload.SlowlyVarying
	TraceBigSpike        = workload.BigSpike
)

// TraceConstant names the flat trace — not one of the six evaluation
// traces, but the calibrated steady-state regime of the analytical twin
// and the hypothesis harness.
const TraceConstant = workload.Constant

// NewTrace builds one of the six standard traces.
func NewTrace(name string, maxUsers int, duration Time) *Trace {
	return workload.NewTrace(name, maxUsers, duration)
}

// NewConstantTrace holds a fixed population (profiling sweeps).
func NewConstantTrace(users int, duration Time) *Trace {
	return workload.NewConstantTrace(users, duration)
}

// TraceNames lists the six standard trace names in the paper's order.
func TraceNames() []string { return workload.Names() }

// NewGenerator wires a closed-loop generator onto an engine.
func NewGenerator(eng *Engine, rnd *Rand, cfg GeneratorConfig, submit func(done func(ok bool))) *Generator {
	return workload.NewGenerator(eng, rnd, cfg, submit)
}

// Metrics.
type (
	// WindowSample is one fine-grained {Q, TP, RT} tuple.
	WindowSample = metrics.WindowSample
	// Warehouse is the Metric Warehouse of the ConScale architecture.
	Warehouse = metrics.Warehouse
)

// NewWarehouse returns a warehouse with the given retention span.
func NewWarehouse(retention Time) *Warehouse { return metrics.NewWarehouse(retention) }

// SCT model.
type (
	// SCTEstimator turns window samples into rational-range estimates.
	SCTEstimator = sct.Estimator
	// SCTConfig tunes the estimator.
	SCTConfig = sct.Config
)

// NewSCTEstimator returns an estimator (zero-value config uses the paper's
// defaults: 3-minute collection window, 5% plateau tolerance).
func NewSCTEstimator(cfg SCTConfig) *SCTEstimator { return sct.New(cfg) }

// DefaultSCTConfig returns the paper's estimator configuration.
func DefaultSCTConfig() SCTConfig { return sct.DefaultConfig() }

// Scaling: the control runtime and the three paper policies.
type (
	// Framework is the control runtime: it drives one scaling policy
	// against one cluster (collection, SCT refresh, decision ticks,
	// repair, decision log, audit, telemetry).
	Framework = scaling.Framework
	// ScalingConfig carries the knobs every policy shares.
	ScalingConfig = scaling.Config
	// Mode names a paper policy: EC2-AutoScaling, DCM, or ConScale.
	Mode = scaling.Mode
	// DCMProfile is the offline-trained soft-resource recommendation.
	DCMProfile = scaling.DCMProfile
)

// Framework modes.
const (
	ModeEC2      = scaling.EC2
	ModeConScale = scaling.ConScale
)

// NewFramework attaches the paper policy cfg.Mode names to a cluster.
func NewFramework(c *Cluster, cfg ScalingConfig) *Framework { return scaling.New(c, cfg) }

// DefaultScalingConfig returns the shared evaluation settings for a mode.
func DefaultScalingConfig(mode Mode) ScalingConfig { return scaling.DefaultConfig(mode) }

// Experiments: the paper's tables and figures.
type (
	// RunConfig describes one full scaling run.
	RunConfig = experiment.RunConfig
	// RunResult captures a run's series and summary statistics.
	RunResult = experiment.RunResult
	// SweepConfig describes a fixed-concurrency profiling sweep.
	SweepConfig = experiment.SweepConfig
	// SweepResult is a measured concurrency-throughput curve.
	SweepResult = experiment.SweepResult
)

// Run executes one full scaling experiment.
func Run(cfg RunConfig) *RunResult { return experiment.Run(cfg) }

// DefaultRunConfig returns the paper's evaluation parameters for a mode
// and trace.
func DefaultRunConfig(mode Mode, trace string) RunConfig {
	return experiment.DefaultRunConfig(mode, trace)
}

// Sweep measures a server's concurrency-throughput curve.
func Sweep(cfg SweepConfig) SweepResult { return experiment.Sweep(cfg) }

// TrainDCM derives the DCM baseline's offline profile.
func TrainDCM(seed uint64, cfg ClusterConfig) DCMProfile {
	return experiment.TrainDCM(seed, cfg)
}

// Chaos: cloud fault injection.
type (
	// ChaosSchedule is an ordered collection of fault events.
	ChaosSchedule = chaos.Schedule
	// ChaosFault is one scheduled fault event.
	ChaosFault = chaos.Fault
	// ChaosInjector arms a schedule on a cluster's engine.
	ChaosInjector = chaos.Injector
)

// Target selectors for fault indices.
const (
	ChaosPickRandom = chaos.PickRandom
	ChaosWholeTier  = chaos.WholeTier
)

// NewChaosSchedule builds a schedule from the given faults.
func NewChaosSchedule(faults ...ChaosFault) *ChaosSchedule { return chaos.NewSchedule(faults...) }

// NewChaosInjector couples a schedule to a cluster; Arm before running.
func NewChaosInjector(c *Cluster, s *ChaosSchedule, seed uint64) *ChaosInjector {
	return chaos.NewInjector(c, s, seed)
}

// ChaosCrash returns a VM-crash fault.
func ChaosCrash(at Time, tier Tier, index int) ChaosFault { return chaos.Crash(at, tier, index) }

// ChaosInterference returns a noisy-neighbor CPU-slowdown window.
func ChaosInterference(at, dur Time, tier Tier, index int, slowdown float64) ChaosFault {
	return chaos.Interference(at, dur, tier, index, slowdown)
}

// ChaosJitter returns a network-delay window on the edge into tier.
func ChaosJitter(at, dur Time, tier Tier, delay Time) ChaosFault {
	return chaos.Jitter(at, dur, tier, delay)
}

// Management agent (the JMX substitute).
type (
	// MgmtAgent serves the runtime-reconfiguration protocol over TCP.
	MgmtAgent = mgmt.Agent
	// MgmtClient is the matching client.
	MgmtClient = mgmt.Client
	// MgmtStore is a thread-safe key registry backing an agent.
	MgmtStore = mgmt.Store
)

// NewMgmtStore returns an empty management store.
func NewMgmtStore() *MgmtStore { return mgmt.NewStore() }

// NewMgmtAgent starts a management agent on addr.
func NewMgmtAgent(addr string, target mgmt.Target) (*MgmtAgent, error) {
	return mgmt.NewAgent(addr, target)
}

// MgmtDial connects to a management agent.
func MgmtDial(addr string) (*MgmtClient, error) { return mgmt.Dial(addr) }

// Tracing: per-request spans, latency blame, and the controller audit
// trail.
type (
	// TraceConfig tunes sampling, reservoir size, and the audit trail.
	TraceConfig = trace.Config
	// Span is one traced request (root) or downstream call (child).
	Span = trace.Span
	// AuditEvent is one controller decision with its cause annotation.
	AuditEvent = trace.AuditEvent
)

// Telemetry: continuous metrics, OpenMetrics exposition, and SLO
// burn-rate monitoring.
type (
	// TelemetryRegistry holds counters, gauges, and histograms with a
	// zero-allocation hot path.
	TelemetryRegistry = telemetry.Registry
	// SLOConfig parameterizes the burn-rate monitor (target, objective,
	// windows, burn threshold).
	SLOConfig = telemetry.SLOConfig
	// SLOMonitor raises and clears multi-window burn-rate alerts.
	SLOMonitor = telemetry.SLOMonitor
)

// NewTelemetryRegistry returns an empty registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// DefaultSLOConfig returns the paper's web QoS target: p99 < 300 ms at a
// 99% objective with 15 s / 60 s burn windows.
func DefaultSLOConfig() SLOConfig { return telemetry.DefaultSLOConfig() }

// NewSLOMonitor returns a burn-rate monitor (zero-value config fields
// fall back to DefaultSLOConfig).
func NewSLOMonitor(cfg SLOConfig) *SLOMonitor { return telemetry.NewSLOMonitor(cfg) }

// Fluctuation forensics: always-on flight recorder, response-time
// episode detection, and causal attribution reports.
type (
	// ForensicsConfig sizes the recorder rings and tunes the detector;
	// zero values take the documented defaults.
	ForensicsConfig = forensics.Config
	// ForensicsReport is a labelled run's full attribution output.
	ForensicsReport = forensics.Report
	// ChromeTrace is the trace-event JSON document episode annotations
	// append to (see BuildChromeTrace for building one from spans).
	ChromeTrace = trace.ChromeTrace
)

// WriteForensicsASCII renders per-episode timelines, ranked causes,
// blame deltas, and reactions as plain text.
func WriteForensicsASCII(w io.Writer, rep *ForensicsReport) error {
	return forensics.WriteASCII(w, rep)
}

// BuildChromeTrace builds the Chrome trace-event document from sampled
// span trees and the audit trail — the base document the forensics and
// twin annotation tracks append to.
func BuildChromeTrace(roots []*Span, audit []AuditEvent) ChromeTrace {
	return trace.BuildChromeTrace(roots, audit)
}

// FormatSimTime renders simulated seconds as a human-readable mm:ss.mmm
// clock (minutes unpadded past 99).
func FormatSimTime(t Time) string { return trace.FormatSimTime(t) }

// Scale mode: million-client populations over striped event execution.
type (
	// Striper runs many engines as shards synchronized at a conservative
	// lookahead horizon, with deterministic cross-shard messaging.
	Striper = des.Striper
	// ScaleConfig describes one scale-mode run (mode, client count,
	// cells, trace, edge delay).
	ScaleConfig = experiment.ScaleConfig
	// ScaleResult captures a scale run's metrics: tails, goodput,
	// events/sec, peak heap.
	ScaleResult = experiment.ScaleResult
	// ScaleRow is one row of the `-run scale` report (BENCH_7.json).
	ScaleRow = experiment.ScaleRow
)

// NewStriper returns a striped executor with n shards and the given
// conservative lookahead (minimum cross-shard delay).
func NewStriper(n int, lookahead Time) *Striper { return des.NewStriper(n, lookahead) }

// RunScale executes one scale-mode run: a streaming open-loop client
// population driving a fleet of cluster cells, one per stripe shard.
func RunScale(cfg ScaleConfig) *ScaleResult { return experiment.RunScale(cfg) }

// DefaultScaleConfig returns the standard scale-mode setup for a
// framework mode and client count (16 cells, 120 s, Large Variations).
func DefaultScaleConfig(mode Mode, clients int) ScaleConfig {
	return experiment.DefaultScaleConfig(mode, clients)
}

// WriteScaleReport writes a scale sweep as `-run scale`'s BENCH_7.json
// (schema conscale-bench/7).
func WriteScaleReport(w io.Writer, rows []ScaleRow) error {
	return experiment.WriteScaleReport(w, rows)
}

// Controller zoo: pluggable scaling policies — the paper three and the
// related-work families alike — driven by the one Framework runtime.
type (
	// Controller is one pluggable scaling policy: it observes the
	// cluster once per decision tick and acts through an Actuator.
	Controller = scaling.Controller
	// ControllerEnv is everything a controller may touch at Init time.
	ControllerEnv = scaling.Env
	// ControllerObservation is the per-tick cluster view handed to Tick.
	ControllerObservation = scaling.Observation
	// ControllerOptions parameterizes controller construction.
	ControllerOptions = scaling.Options
	// ControllerFactory builds one controller instance from options.
	ControllerFactory = scaling.Factory
	// ControllerRuntime is the Framework under the name the controller
	// zoo introduced it by.
	ControllerRuntime = scaling.Framework
)

// RegisterController adds a custom controller family to the zoo under a
// unique name; it panics on a duplicate. Registered controllers are
// buildable by NewController.
func RegisterController(name string, f ControllerFactory) { scaling.Register(name, f) }

// NewController builds a registered controller by name ("ec2", "dcm",
// "conscale", "target-tracking", "step-scaling", "hybrid-mpc",
// "tabs-token", or any name added via RegisterController).
func NewController(name string, opts ControllerOptions) (Controller, error) {
	return scaling.NewController(name, opts)
}

// NewControllerRuntime attaches a controller to a cluster under the
// Framework runtime. Call Start before running the engine.
func NewControllerRuntime(c *Cluster, ctrl Controller, opts ControllerOptions) *ControllerRuntime {
	return scaling.Attach(c, ctrl, opts)
}

// Analytical twin: an online MVA model solved beside the live
// simulation, invariant probes over steady-state regimes, and
// model-drift detection classified against forensics episodes.
type (
	// TwinConfig tunes the observer cadence, residual thresholds, and
	// drift hysteresis; zero values take the documented defaults.
	TwinConfig = twin.Config
	// TwinSample is one tick's prediction, observation, and residuals
	// (or the regime-inapplicability reason).
	TwinSample = twin.Sample
	// TwinDrift is one raised model-drift flag with its classification
	// (transient inside a forensics episode vs model-bug candidate).
	TwinDrift = twin.DriftEvent
)

// AppendTwinChrome adds the twin annotation track — predicted and
// observed counters, inapplicability instants, drift slices — to a
// Chrome trace-event document.
func AppendTwinChrome(doc *ChromeTrace, samples []TwinSample, drifts []TwinDrift) {
	twin.AppendChrome(doc, samples, drifts)
}

// Admission control: pluggable load shedding at each server's accept
// queue.
type (
	// AdmissionConfig selects and parameterises a policy family
	// ("always", "queue-cap", "codel", "priority"); zero fields take
	// the documented defaults.
	AdmissionConfig = admission.Config
)

// Admission classes.
const (
	ClassBrowse    = admission.ClassBrowse
	ClassReadWrite = admission.ClassReadWrite
)

// ParseAdmission decodes a policy spec string such as
// "codel:target=50ms,interval=500ms" into an AdmissionConfig.
func ParseAdmission(spec string) (AdmissionConfig, error) { return admission.Parse(spec) }
