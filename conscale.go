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
	"net/http"

	"conscale/internal/admission"
	"conscale/internal/chaos"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/experiment"
	"conscale/internal/forensics"
	"conscale/internal/lb"
	"conscale/internal/metrics"
	"conscale/internal/mgmt"
	"conscale/internal/qnet"
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

// NewEngine returns a fresh simulation engine.
func NewEngine() *Engine { return des.New() }

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

// Load balancing.
type (
	// Balancer is the HAProxy-substitute load balancer.
	Balancer = lb.Balancer
	// Policy selects the dispatch algorithm.
	Policy = lb.Policy
)

// Balancer policies.
const (
	RoundRobin = lb.RoundRobin
	LeastConn  = lb.LeastConn
)

// RUBBoS application model.
type (
	// Mix selects the RUBBoS workload mode.
	Mix = rubbos.Mix
	// Servlet is one RUBBoS interaction with per-tier demands.
	Servlet = rubbos.Servlet
	// RubbosWorkload is a calibrated servlet mix.
	RubbosWorkload = rubbos.Workload
)

// Workload mixes.
const (
	BrowseOnly = rubbos.BrowseOnly
	ReadWrite  = rubbos.ReadWrite
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
	// TimelinePoint is one second of client-observed behaviour.
	TimelinePoint = workload.TimelinePoint
)

// The six bursty trace names of the paper's Fig. 9.
const (
	TraceLargeVariations = workload.LargeVariations
	TraceQuicklyVarying  = workload.QuicklyVarying
	TraceSlowlyVarying   = workload.SlowlyVarying
	TraceBigSpike        = workload.BigSpike
	TraceDualPhase       = workload.DualPhase
	TraceSteepTriPhase   = workload.SteepTriPhase
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
	// SCTEstimate is one rational-concurrency-range estimate.
	SCTEstimate = sct.Estimate
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
	// ScalingEvent is one entry of the scaling log.
	ScalingEvent = scaling.Event
)

// Framework modes.
const (
	ModeEC2      = scaling.EC2
	ModeDCM      = scaling.DCM
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
	// Table1Row is one row of the paper's Table I.
	Table1Row = experiment.Table1Row
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

// Table1 regenerates the paper's Table I.
func Table1(seed uint64) []Table1Row { return experiment.Table1(seed) }

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
	// ChaosFaultKind enumerates the fault types.
	ChaosFaultKind = chaos.Kind
	// ChaosInjector arms a schedule on a cluster's engine.
	ChaosInjector = chaos.Injector
	// ChaosWindow records one activated fault for timeline overlays.
	ChaosWindow = chaos.Window
	// ChaosConfig parameterizes a composite generated fault scenario.
	ChaosConfig = chaos.Config
)

// Fault kinds.
const (
	ChaosVMCrash         = chaos.VMCrash
	ChaosCPUInterference = chaos.CPUInterference
	ChaosNetDelay        = chaos.NetDelay
	ChaosSlowBoot        = chaos.SlowBoot
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

// ChaosStragglers returns a slow-boot window.
func ChaosStragglers(at, dur Time, factor float64) ChaosFault {
	return chaos.Stragglers(at, dur, factor)
}

// GenerateChaos builds the merged schedule for a composite scenario.
func GenerateChaos(seed uint64, cfg ChaosConfig) *ChaosSchedule { return chaos.Generate(seed, cfg) }

// RandomCrashes generates a Poisson crash process over the given tiers.
func RandomCrashes(seed uint64, perMinute float64, duration Time, tiers ...Tier) *ChaosSchedule {
	return chaos.RandomCrashes(seed, perMinute, duration, tiers...)
}

// InterferenceBursts generates noisy-neighbor windows on a tier.
func InterferenceBursts(seed uint64, n int, duration, meanLen Time, tier Tier, slowdown float64) *ChaosSchedule {
	return chaos.InterferenceBursts(seed, n, duration, meanLen, tier, slowdown)
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
	// Tracer is the head-sampling per-request tracer.
	Tracer = trace.Tracer
	// TraceConfig tunes sampling, reservoir size, and the audit trail.
	TraceConfig = trace.Config
	// Span is one traced request (root) or downstream call (child).
	Span = trace.Span
	// Segment is one attributed interval of a span's lifetime.
	Segment = trace.Segment
	// SegKind classifies a segment (queue wait, CPU service, ...).
	SegKind = trace.SegKind
	// TraceTierID buckets servers into client/web/app/cache/DB tiers.
	TraceTierID = trace.TierID
	// BlameRow is one (time window, request class) latency decomposition.
	BlameRow = trace.BlameRow
	// AuditEvent is one controller decision with its cause annotation.
	AuditEvent = trace.AuditEvent
	// AuditKind enumerates the audited decision types.
	AuditKind = trace.AuditKind
	// BlameResult bundles one traced controller run with its blame table.
	BlameResult = experiment.BlameResult
)

// NewTracer returns a tracer; a nil *Tracer is a safe no-op everywhere.
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// BlameSummary aggregates blame rows of one class over [from, to).
func BlameSummary(rows []BlameRow, class string, from, to Time) (BlameRow, bool) {
	return trace.BlameSummary(rows, class, from, to)
}

// WriteChromeTrace exports spans and audit marks as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, roots []*Span, audit []AuditEvent) error {
	return trace.WriteChromeTrace(w, roots, audit)
}

// WriteWaterfall renders one request tree as an ASCII waterfall.
func WriteWaterfall(w io.Writer, root *Span) error { return trace.WriteWaterfall(w, root) }

// WriteBlameCSV exports a blame table as CSV.
func WriteBlameCSV(w io.Writer, mode string, rows []BlameRow) error {
	return trace.WriteBlameCSV(w, mode, rows)
}

// WriteAuditCSV exports a controller audit trail as CSV.
func WriteAuditCSV(w io.Writer, events []AuditEvent) error {
	return trace.WriteAuditCSV(w, events)
}

// BlameRuns compares traced EC2, DCM, and ConScale runs and returns each
// with its blame table.
func BlameRuns(seed uint64, duration Time, users int) []BlameResult {
	return experiment.BlameRuns(seed, duration, users)
}

// Telemetry: continuous metrics, OpenMetrics exposition, and SLO
// burn-rate monitoring.
type (
	// TelemetryRegistry holds counters, gauges, and histograms with a
	// zero-allocation hot path (and a zero-cost disabled mode).
	TelemetryRegistry = telemetry.Registry
	// Counter is a monotone event count.
	Counter = telemetry.Counter
	// Gauge is an instantaneous level.
	Gauge = telemetry.Gauge
	// Histogram is a log-linear latency distribution with bounded
	// relative error.
	Histogram = telemetry.Histogram
	// TelemetryScraper snapshots a registry on the simulation clock into
	// an OpenMetrics timeline.
	TelemetryScraper = telemetry.Scraper
	// SLOConfig parameterizes the burn-rate monitor (target, objective,
	// windows, burn threshold).
	SLOConfig = telemetry.SLOConfig
	// SLOMonitor raises and clears multi-window burn-rate alerts.
	SLOMonitor = telemetry.SLOMonitor
	// SLOAlert is one raised alert interval.
	SLOAlert = telemetry.Alert
	// PromFamily is one parsed exposition-format metric family.
	PromFamily = telemetry.PromFamily
	// PromSample is one parsed exposition-format sample line.
	PromSample = telemetry.PromSample
	// TelemetryOptions arms the telemetry layer on an experiment run.
	TelemetryOptions = experiment.TelemetryOptions
	// SLODetectionRun is one (trace, controller) cell of the detection
	// lead-time comparison.
	SLODetectionRun = experiment.SLORun
	// SLODetectionRow scores one run's alerts against ground truth.
	SLODetectionRow = experiment.SLORow
)

// NewTelemetryRegistry returns an enabled, empty registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTelemetryScraper schedules sim-time scrapes of a registry.
func NewTelemetryScraper(eng *Engine, reg *TelemetryRegistry, every Time) *TelemetryScraper {
	return telemetry.NewScraper(eng, reg, every)
}

// TelemetryHandler serves a registry as Prometheus text at /metrics.
func TelemetryHandler(reg *TelemetryRegistry) http.Handler { return telemetry.Handler(reg) }

// DefaultSLOConfig returns the paper's web QoS target: p99 < 300 ms at a
// 99% objective with 15 s / 60 s burn windows.
func DefaultSLOConfig() SLOConfig { return telemetry.DefaultSLOConfig() }

// NewSLOMonitor returns a burn-rate monitor (zero-value config fields
// fall back to DefaultSLOConfig).
func NewSLOMonitor(cfg SLOConfig) *SLOMonitor { return telemetry.NewSLOMonitor(cfg) }

// ParseProm parses Prometheus/OpenMetrics text into metric families.
func ParseProm(r io.Reader) ([]PromFamily, error) { return telemetry.ParseProm(r) }

// SLODetection runs the detection lead-time comparison — EC2 vs DCM vs
// ConScale across the six bursty traces — at the paper's evaluation size.
func SLODetection(seed uint64) []SLODetectionRun { return experiment.SLODetection(seed, nil) }

// RenderSLODetection prints the detection comparison table.
func RenderSLODetection(w io.Writer, runs []SLODetectionRun) { experiment.RenderSLO(w, runs) }

// Fluctuation forensics: always-on flight recorder, response-time
// episode detection, and causal attribution reports.
type (
	// Forensics bundles the flight recorder and the episode detector
	// behind one enable switch.
	Forensics = forensics.Forensics
	// ForensicsConfig sizes the recorder rings and tunes the detector;
	// zero values take the documented defaults.
	ForensicsConfig = forensics.Config
	// FlightRecorder keeps bounded rings of tier snapshots, controller
	// decisions, SCT estimates, fault activations, and span summaries.
	FlightRecorder = forensics.Recorder
	// EpisodeDetector finds response-time fluctuation episodes from the
	// windowed p99 against a learned baseline, with hysteresis.
	EpisodeDetector = forensics.Detector
	// EpisodeDetectorConfig tunes the detector thresholds and windows.
	EpisodeDetectorConfig = forensics.DetectorConfig
	// Episode is one detected fluctuation: onset, peak, recovery, depth.
	Episode = forensics.Episode
	// EpisodeCause is one ranked suspected cause with its evidence.
	EpisodeCause = forensics.Cause
	// EpisodeCauseKind classifies a suspected cause (fault, surge,
	// decision, SCT shift, unknown).
	EpisodeCauseKind = forensics.CauseKind
	// EpisodeAttribution is one episode with its ranked causes, blame
	// deltas, and controller reactions.
	EpisodeAttribution = forensics.EpisodeReport
	// ForensicsReport is a labelled run's full attribution output.
	ForensicsReport = forensics.Report
	// ForensicsTierSnapshot is one recorded per-tier occupancy sample.
	ForensicsTierSnapshot = forensics.TierSnapshot
	// ChromeTrace is the trace-event JSON document episode annotations
	// append to (see WriteChromeTrace for building one from spans).
	ChromeTrace = trace.ChromeTrace
)

// NewForensics returns an enabled recorder + detector pair. Arm it on an
// experiment via RunConfig.Forensics; the layer only reads, so armed
// runs stay byte-identical to bare ones.
func NewForensics(cfg ForensicsConfig) *Forensics { return forensics.New(cfg) }

// WriteForensicsJSON writes an attribution report as indented JSON.
func WriteForensicsJSON(w io.Writer, rep *ForensicsReport) error {
	return forensics.WriteJSON(w, rep)
}

// WriteForensicsASCII renders per-episode timelines, ranked causes,
// blame deltas, and reactions as plain text.
func WriteForensicsASCII(w io.Writer, rep *ForensicsReport) error {
	return forensics.WriteASCII(w, rep)
}

// AppendForensicsChrome adds an episode annotation track (slices +
// cause instants) to a Chrome trace-event document.
func AppendForensicsChrome(doc *ChromeTrace, rep *ForensicsReport) {
	forensics.AppendChrome(doc, rep)
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
	// Shard is one engine plus its cross-shard outbox inside a Striper.
	Shard = des.Shard
	// WorkloadClass is one request class of a streaming population
	// (name, arrival weight, mean think time).
	WorkloadClass = workload.Class
	// StreamStats are the O(1)-memory client statistics a streaming
	// generator maintains instead of per-request samples.
	StreamStats = workload.StreamStats
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

// RenderScale prints a scale sweep as an ASCII table.
func RenderScale(w io.Writer, rows []ScaleRow) { experiment.RenderScale(w, rows) }

// Controller zoo: pluggable scaling policies — the paper three and the
// related-work families alike — driven by the one Framework runtime, and
// the full-factorial tournament that ranks them.
type (
	// Controller is one pluggable scaling policy: it observes the
	// cluster once per decision tick and acts through an Actuator.
	Controller = scaling.Controller
	// ControllerEnv is everything a controller may touch at Init time.
	ControllerEnv = scaling.Env
	// ControllerActuator is the action surface controllers mutate
	// the cluster through (scale-out/in, pool resizes).
	ControllerActuator = scaling.Actuator
	// ControllerObservation is the per-tick cluster view handed to Tick.
	ControllerObservation = scaling.Observation
	// ControllerTierState is the per-tier slice of an observation.
	ControllerTierState = scaling.TierState
	// ControllerTierEstimate is the tier-aggregated SCT signal.
	ControllerTierEstimate = scaling.TierEstimate
	// ControllerOptions parameterizes controller construction.
	ControllerOptions = scaling.Options
	// ControllerFactory builds one controller instance from options.
	ControllerFactory = scaling.Factory
	// ControllerRuntime is the Framework under the name the controller
	// zoo introduced it by.
	ControllerRuntime = scaling.Framework
	// SCTSignal is the composable SCT concurrency-range estimator any
	// controller can consume.
	SCTSignal = scaling.Signal
	// TournamentConfig describes the controllers × traces × tiers
	// factorial.
	TournamentConfig = experiment.TournamentConfig
	// TournamentResult holds every cell and the ranked standings.
	TournamentResult = experiment.TournamentResult
	// TournamentCell is one controller × trace × tier run, scored.
	TournamentCell = experiment.TournamentCell
	// TournamentRank is one controller's aggregate standing.
	TournamentRank = experiment.TournamentRank
)

// RegisterController adds a custom controller family to the zoo under a
// unique name; it panics on a duplicate. Registered controllers are
// buildable by NewController and play in RunTournament.
func RegisterController(name string, f ControllerFactory) { scaling.Register(name, f) }

// NewController builds a registered controller by name ("ec2", "dcm",
// "conscale", "target-tracking", "step-scaling", "hybrid-mpc",
// "tabs-token", or any name added via RegisterController).
func NewController(name string, opts ControllerOptions) (Controller, error) {
	return scaling.NewController(name, opts)
}

// ControllerNames returns every registered controller name, sorted.
func ControllerNames() []string { return scaling.Names() }

// NewControllerRuntime attaches a controller to a cluster under the
// Framework runtime. Call Start before running the engine.
func NewControllerRuntime(c *Cluster, ctrl Controller, opts ControllerOptions) *ControllerRuntime {
	return scaling.Attach(c, ctrl, opts)
}

// DefaultTournamentConfig returns the standard factorial: every
// registered controller × all six traces × two scale tiers.
func DefaultTournamentConfig() TournamentConfig { return experiment.DefaultTournamentConfig() }

// RunTournament executes the controller tournament and ranks the
// controllers by rank sum over p99 / SLO-burn minutes / VM-hours. A
// config that fails TournamentConfig.Validate returns its error before
// any cell runs.
func RunTournament(cfg TournamentConfig) (*TournamentResult, error) {
	return experiment.RunTournament(cfg)
}

// RenderTournament prints the ranked standings and per-cell table.
func RenderTournament(w io.Writer, res *TournamentResult) { experiment.RenderTournament(w, res) }

// WriteTournamentCSV writes every factorial cell as CSV.
func WriteTournamentCSV(w io.Writer, res *TournamentResult) { experiment.WriteTournamentCSV(w, res) }

// Analytical twin: an online MVA model solved beside the live
// simulation, invariant probes over steady-state regimes, and
// model-drift detection classified against forensics episodes.
type (
	// TwinConfig tunes the observer cadence, residual thresholds, and
	// drift hysteresis; zero values take the documented defaults.
	TwinConfig = twin.Config
	// TwinModel supplies the static inputs the live cluster cannot be
	// asked for: the workload, think time, and per-tier core counts.
	TwinModel = twin.Model
	// TwinObserver snapshots the cluster into a closed MVA network each
	// tick and streams predicted-vs-observed residuals.
	TwinObserver = twin.Observer
	// TwinSample is one tick's prediction, observation, and residuals
	// (or the regime-inapplicability reason).
	TwinSample = twin.Sample
	// TwinDrift is one raised model-drift flag with its classification
	// (transient inside a forensics episode vs model-bug candidate).
	TwinDrift = twin.DriftEvent
	// TwinObservation is the per-tick cluster view handed to Tick.
	TwinObservation = twin.Observation
	// QNetLiveState is a point-in-time cluster configuration that
	// SnapshotNetwork turns into a solvable MVA network.
	QNetLiveState = qnet.LiveState
	// QNetwork is a closed queueing network solved by exact MVA.
	QNetwork = qnet.Network
	// HypothesisConfig tunes the declared-hypothesis validation harness.
	HypothesisConfig = experiment.HypothesisConfig
	// HypothesisResult is one executed hypothesis: claim, regime,
	// verdict, and checked metrics with confidence intervals.
	HypothesisResult = experiment.HypothesisResult
	// HypothesisMetric is one checked quantity with its 95% CI and
	// declared bound.
	HypothesisMetric = experiment.HypoMetric
)

// NewTwin returns an enabled analytical-twin observer. Arm it on an
// experiment via RunConfig.Twin; the observer only reads, so armed runs
// stay byte-identical to bare ones.
func NewTwin(cfg TwinConfig, m TwinModel) *TwinObserver { return twin.New(cfg, m) }

// SnapshotNetwork builds the closed MVA network for a live cluster
// configuration (tier VM/core counts, workload demands, think time).
func SnapshotNetwork(s QNetLiveState) (*QNetwork, error) { return qnet.SnapshotNetwork(s) }

// WriteTwinCSV writes a twin-armed run's predicted-vs-observed sample
// series as CSV.
func WriteTwinCSV(w io.Writer, r *RunResult) error { return experiment.WriteTwinCSV(w, r) }

// AppendTwinChrome adds the twin annotation track — predicted and
// observed counters, inapplicability instants, drift slices — to a
// Chrome trace-event document.
func AppendTwinChrome(doc *ChromeTrace, samples []TwinSample, drifts []TwinDrift) {
	twin.AppendChrome(doc, samples, drifts)
}

// HypothesisIDs returns the declared hypothesis ids in execution order.
func HypothesisIDs() []string { return experiment.HypothesisIDs() }

// RunHypotheses executes the selected declared hypotheses (all when
// cfg.IDs is empty) as multi-seed sweeps and returns their verdicts.
func RunHypotheses(cfg HypothesisConfig) ([]HypothesisResult, error) {
	return experiment.RunHypotheses(cfg)
}

// RenderHypotheses prints the per-hypothesis FINDINGS table.
func RenderHypotheses(w io.Writer, results []HypothesisResult) error {
	return experiment.RenderHypotheses(w, results)
}

// Admission control: pluggable load shedding at each server's accept
// queue, and the policy × controller × trace frontier experiment that
// maps the p99-vs-goodput trade-off.
type (
	// AdmissionConfig selects and parameterises a policy family
	// ("always", "queue-cap", "codel", "priority"); zero fields take
	// the documented defaults.
	AdmissionConfig = admission.Config
	// AdmissionPolicy is the per-accept-queue decision contract:
	// Admit at queue entry, ObserveDequeue as sojourn feedback.
	AdmissionPolicy = admission.Policy
	// AdmissionClass is a request's shedding class, mapped from the
	// RUBBoS servlet mix (browse sheds before read-write).
	AdmissionClass = admission.Class
	// AdmissionMeter aggregates per-class shed rates over fixed
	// sim-time windows for telemetry.
	AdmissionMeter = admission.Meter
	// FrontierConfig describes the admission-policy × controller ×
	// trace factorial on the scale-mode skeleton.
	FrontierConfig = experiment.FrontierConfig
	// FrontierResult holds every frontier cell with p99/goodput deltas
	// against the matching always-admit baseline.
	FrontierResult = experiment.FrontierResult
	// FrontierRow is one trace × controller × policy cell.
	FrontierRow = experiment.FrontierRow
)

// Admission classes.
const (
	ClassBrowse    = admission.ClassBrowse
	ClassReadWrite = admission.ClassReadWrite
)

// NewAdmissionPolicy builds a fresh policy instance from the config.
// Each server needs its own instance — policies carry per-queue state.
func NewAdmissionPolicy(cfg AdmissionConfig) (AdmissionPolicy, error) { return admission.New(cfg) }

// ParseAdmission decodes a policy spec string such as
// "codel:target=50ms,interval=500ms" into an AdmissionConfig.
func ParseAdmission(spec string) (AdmissionConfig, error) { return admission.Parse(spec) }

// AdmissionPolicyNames lists the built-in policy families, sorted.
func AdmissionPolicyNames() []string { return admission.Names() }

// DefaultFrontierConfig returns the standard frontier factorial:
// four policies × four controllers × all six traces at 100k clients.
func DefaultFrontierConfig() FrontierConfig { return experiment.DefaultFrontierConfig() }

// RunFrontier executes the admission frontier factorial. Always-admit
// cells run with no policy installed — byte-identical to the pre-layer
// simulation — and serve as each (controller, trace) delta baseline. A
// config that fails FrontierConfig.Validate returns its error before any
// cell runs.
func RunFrontier(cfg FrontierConfig) (*FrontierResult, error) { return experiment.RunFrontier(cfg) }

// RenderFrontier prints the frontier as an ASCII table grouped by
// trace and controller, best p99 first.
func RenderFrontier(w io.Writer, res *FrontierResult) { experiment.RenderFrontier(w, res) }

// WriteFrontierCSV writes every frontier cell as CSV.
func WriteFrontierCSV(w io.Writer, res *FrontierResult) { experiment.WriteFrontierCSV(w, res) }

// WriteFrontierReport writes the frontier as `-run frontier`'s
// BENCH_10.json (schema conscale-bench/10).
func WriteFrontierReport(w io.Writer, res *FrontierResult) error {
	return experiment.WriteFrontierReport(w, res)
}
