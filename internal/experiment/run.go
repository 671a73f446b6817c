// Package experiment contains the evaluation harness: one runner per table
// and figure of the paper (see DESIGN.md's per-experiment index), built on
// the cluster simulator, the workload traces, and the scaling frameworks.
// Each runner returns plain data structures that the cmd/experiments tool
// renders as CSV or ASCII tables, and that the bench suite asserts shapes
// against (who wins, where knees fall).
package experiment

import (
	"io"
	"math"

	"conscale/internal/admission"
	"conscale/internal/chaos"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/forensics"
	"conscale/internal/metrics"
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

// RunConfig describes one full scaling run (a Fig. 1/10/11 style
// experiment).
type RunConfig struct {
	// Mode names the paper policy (EC2, DCM, ConScale) that drives the
	// run when Controller is empty.
	Mode      scaling.Mode
	TraceName string
	MaxUsers  int
	Duration  des.Time
	Seed      uint64

	// Controller (if non-empty) names the registered policy that drives
	// the run, resolved as scaling.Canonical does (case-insensitive,
	// aliases accepted). The paper names ("ec2", "dcm", "conscale") are
	// the same policies Mode selects.
	Controller string

	// ThinkTime is the mean user think time (7 s, the RUBBoS default).
	ThinkTime float64

	// Cluster overrides; zero values take cluster.DefaultConfig.
	Cluster *cluster.Config

	// Admission (if non-empty) installs per-tier admission policies on
	// every VM of the named tiers (merged over Cluster's own Admission
	// map, per-tier entries here winning). A nil/empty map — or an
	// explicit always-admit policy — leaves the run's trajectory
	// byte-identical to the pre-admission code path
	// (TestAlwaysAdmitByteIdentical).
	Admission map[cluster.Tier]admission.Config

	// Framework overrides the shared scaling knobs; nil takes
	// scaling.DefaultConfig(Mode).
	Framework *scaling.Config

	// DatasetChangeAt (if > 0) switches the dataset scale mid-run to
	// DatasetChangeTo — the system-state change of Fig. 11.
	DatasetChangeAt des.Time
	DatasetChangeTo float64

	// Chaos (if non-nil) arms the fault schedule on the run. An empty
	// schedule is bit-identical to nil: the injector's random stream is
	// derived from the run seed but consumed only by the schedule's own
	// random draws.
	Chaos *chaos.Schedule

	// Tracing (if non-nil) arms per-request tracing plus the controller
	// audit trail. The tracer samples from its own stream derived from
	// the run seed, so a traced run's timeline is byte-identical to an
	// untraced one.
	Tracing *trace.Config

	// Telemetry (if non-nil) arms the continuous-metrics registry across
	// the whole stack, a sim-time scraper snapshotting it into an
	// OpenMetrics timeline, and the SLO burn-rate monitor over the client
	// request stream. Telemetry only reads simulation state, so an
	// instrumented run's timeline is byte-identical to a bare one.
	Telemetry *TelemetryOptions

	// Forensics (if non-nil) arms the fluctuation-forensics layer: the
	// flight recorder (fed by the audit-trail observer, the tracer's
	// end-of-request tap, and a per-second occupancy snapshot tick) plus
	// the episode detector over the client request stream. The layer only
	// reads simulation state, so an armed run's timeline is byte-identical
	// to a bare one. Arm Tracing alongside it — without the audit trail
	// the recorder sees no decisions, faults, or SCT refreshes.
	Forensics *forensics.Config

	// Twin (if non-nil) arms the analytical-twin observer: a periodic
	// snapshot of the live configuration solved as a closed MVA network,
	// streaming predicted-vs-observed residuals and a model-drift flag.
	// The twin only reads simulation state (its taps and its tick draw
	// no randomness and schedule nothing but read-only callbacks), so an
	// armed run's timeline is byte-identical to a bare one
	// (TestTwinRunByteIdentical). Arm Tracing alongside it to land the
	// twin-drift events on the audit trail, and Forensics to classify
	// drift against fluctuation episodes.
	Twin *twin.Config

	// WarmupSkip excludes the initial span from tail-latency statistics.
	WarmupSkip des.Time
}

// TelemetryOptions configures the run's continuous-telemetry layer.
type TelemetryOptions struct {
	// ScrapeInterval is the registry snapshot cadence (0 = 5 s).
	ScrapeInterval des.Time
	// SLO overrides the burn-rate monitor settings (nil = DefaultSLOConfig:
	// p99 < 300 ms, 15 s / 60 s windows, burn 4).
	SLO *telemetry.SLOConfig
	// OpenMetrics (if non-nil) receives the scrape timeline as the run
	// takes it, # EOF included; nil keeps no timeline. The result's
	// Scraper holds none either way. A sink is where output goes, not an
	// input of the run, so the config's JSON leaves it out.
	OpenMetrics io.Writer `json:"-"`
}

// DefaultRunConfig returns the paper's evaluation parameters: 7500 users,
// 12 minutes, 7 s think time, 1/1/1 start, soft resources 1000-60-40.
func DefaultRunConfig(mode scaling.Mode, traceName string) RunConfig {
	return RunConfig{
		Mode:      mode,
		TraceName: traceName,
		MaxUsers:  7500,
		Duration:  720 * des.Second,
		Seed:      1,
		ThinkTime: 3,
	}
}

// TierSeries is a per-second series for one tier.
type TierSeries struct {
	CPU []float64 // mean utilization (0..1) per second
}

// RunResult captures everything the figures and tables need from one run.
type RunResult struct {
	Mode  scaling.Mode
	Trace string
	// Controller echoes RunConfig.Controller ("" when Mode named the
	// policy).
	Controller string

	// Timeline is the client-observed per-second series (RT, TP, errors).
	Timeline []workload.TimelinePoint
	// VMs is the total VM count per second.
	VMs []int
	// TierCPU holds per-second CPU utilization for the app and DB tiers.
	TierCPU map[cluster.Tier][]float64
	// SoftHistory tracks the (appThreads, dbConns) setting per second.
	SoftHistory [][2]int

	Events []scaling.Event

	// Tail latencies in seconds over the post-warmup window.
	P50, P95, P99 float64
	// MeanRT is the mean response time (seconds).
	MeanRT float64
	// Goodput is the count of successful requests; ErrorRate the failed
	// fraction.
	Goodput   int
	ErrorRate float64
	// Client is the client side of request conservation.
	Client ClientLedger

	// Sheds counts admission-policy drops across the whole cluster and
	// run (0 without admission policies); ShedsByClass splits the count
	// by priority class.
	Sheds        uint64
	ShedsByClass [admission.NumClasses]uint64

	// Warehouse retains the per-server fine-grained samples for scatter
	// analyses (Fig. 5/6).
	Warehouse *metrics.Warehouse

	// FinalEstimates is ConScale's per-server SCT view at the end.
	FinalEstimates map[string]sct.Estimate

	// FaultWindows lists the chaos faults that activated during the run
	// (empty without a schedule) — the overlay data for timelines.
	FaultWindows []chaos.Window

	// Tracer holds the armed tracer (nil when RunConfig.Tracing was nil):
	// the blame table, the slowest-request reservoir, and the counters.
	Tracer *trace.Tracer
	// Audit is the controller decision trail of the run (nil untraced).
	Audit []trace.AuditEvent

	// Registry / Scraper / SLO are the run's telemetry layer (nil when
	// RunConfig.Telemetry was nil). Scraper streamed the OpenMetrics
	// timeline to TelemetryOptions.OpenMetrics; SLO holds the burn-rate
	// alert episodes.
	Registry *telemetry.Registry
	Scraper  *telemetry.Scraper
	SLO      *telemetry.SLOMonitor
	// SLOTruth is the per-second ground truth the SLO lead-time
	// evaluation scores the alerts against, counted by Run itself from
	// every completion (nil when RunConfig.Telemetry was nil).
	SLOTruth []SLOSecond

	// Forensics is the armed forensics layer (nil when
	// RunConfig.Forensics was nil): the flight recorder's rings and the
	// detector's confirmed episodes, ready for Report().
	Forensics *forensics.Forensics

	// Twin is the armed analytical-twin observer (nil when
	// RunConfig.Twin was nil): the predicted-vs-observed sample series,
	// the residual gauges, and the sealed drift events.
	Twin *twin.Observer
}

// ClientLedger counts a run's client requests, as Run's tap saw them:
// Issued = OK + Failed + InFlight. A request an admission policy shed or
// a killed VM dropped is Failed; InFlight is what was still out when the
// drain ended.
type ClientLedger struct {
	Issued, OK, Failed, InFlight int64
}

// tierMap pairs cluster tiers with their trace tier IDs for forensics
// occupancy snapshots (a package-level array so the tick allocates
// nothing iterating it).
var tierMap = [...]struct {
	ct cluster.Tier
	id trace.TierID
}{
	{cluster.Web, trace.TierWeb},
	{cluster.App, trace.TierApp},
	{cluster.Cache, trace.TierCache},
	{cluster.DB, trace.TierDB},
}

// newFramework builds the policy a run config selects — controller when
// set, else the paper policy mode names — and attaches it to the cluster:
// the one assembly path of Run and RunScale. The registry resolves the
// name, so every spelling it accepts ("DCM", " dcm ", Mode: scaling.DCM)
// builds the same policy. It panics on an unknown name: callers validate
// user input; a typo that reaches a run is a programming error.
func newFramework(c *cluster.Cluster, controller string, mode scaling.Mode, seed uint64, fcfg scaling.Config) *scaling.Framework {
	if controller == "" {
		controller = mode.String()
	}
	f, err := scaling.NewNamed(c, controller, scaling.Options{Seed: seed, Base: fcfg})
	if err != nil {
		panic(err)
	}
	return f
}

// profiledConfig returns the evaluation settings with DCM's offline
// profile installed. Only DCM reads the profile, so installing it
// whatever the policy keeps the recipe free of a "which policy is this"
// test.
func profiledConfig(mode scaling.Mode, profile scaling.DCMProfile) *scaling.Config {
	fcfg := scaling.DefaultConfig(mode)
	fcfg.Profile = profile
	return &fcfg
}

// shortHorizonSCT sizes the SCT estimator for a run of a few minutes: it
// must estimate from a sub-default collection window with relaxed sample
// floors, or the signal stays dark for most of the run.
func shortHorizonSCT(fcfg *scaling.Config, window des.Time) {
	fcfg.SCT.CollectionWindow = window
	fcfg.SCT.MinTotalSamples = 30
	fcfg.SCT.MinDistinctBins = 3
}

// Run executes one full scaling experiment.
func Run(cfg RunConfig) *RunResult {
	ccfg := cluster.DefaultConfig()
	if cfg.Cluster != nil {
		ccfg = *cfg.Cluster
	}
	ccfg.Seed = cfg.Seed
	if len(cfg.Admission) > 0 {
		merged := make(map[cluster.Tier]admission.Config, len(cfg.Admission)+len(ccfg.Admission))
		for t, a := range ccfg.Admission {
			merged[t] = a
		}
		for t, a := range cfg.Admission {
			merged[t] = a
		}
		ccfg.Admission = merged
	}
	c := cluster.New(ccfg)

	fcfg := scaling.DefaultConfig(cfg.Mode)
	if cfg.Framework != nil {
		fcfg = *cfg.Framework
		fcfg.Mode = cfg.Mode
	}
	// Retain the whole run so post-hoc scatter analysis sees everything.
	if fcfg.WarehouseRetention < cfg.Duration+60*des.Second {
		fcfg.WarehouseRetention = cfg.Duration + 60*des.Second
	}

	var tracer *trace.Tracer
	if cfg.Tracing != nil {
		tcfg := *cfg.Tracing
		if tcfg.Seed == 0 {
			tcfg.Seed = cfg.Seed
		}
		tracer = trace.New(tcfg)
		c.SetTracer(tracer)
	}

	f := newFramework(c, cfg.Controller, cfg.Mode, cfg.Seed, fcfg)
	f.SetAudit(tracer.Audit())

	// Arm the telemetry layer before the control loops start so the first
	// scrape already sees every family registered.
	var (
		reg *telemetry.Registry
		scr *telemetry.Scraper
		slo *telemetry.SLOMonitor
	)
	// probe is the run's tap on the client stream: it keeps the result's
	// statistics on every run and gathers the observers as the layers
	// below arm.
	probe := &clientProbe{warm: cfg.WarmupSkip}
	if cfg.Telemetry != nil {
		reg = telemetry.NewRegistry()
		c.SetTelemetry(reg)
		f.RegisterTelemetry(reg)
		slocfg := telemetry.DefaultSLOConfig()
		if cfg.Telemetry.SLO != nil {
			slocfg = *cfg.Telemetry.SLO
		}
		slo = telemetry.NewSLOMonitor(slocfg)
		slo.SetAudit(tracer.Audit())
		slo.Register(reg)
		probe.clientRT = reg.Histogram("conscale_client_rt_seconds",
			"Client-observed end-to-end response time of successful requests.")
		probe.slo, probe.sloTarget = slo, slo.Config().Target
		scr = telemetry.NewScraperTo(c.Eng, reg, cfg.Telemetry.ScrapeInterval, cfg.Telemetry.OpenMetrics)
		scr.Start()
	}

	var fx *forensics.Forensics
	if cfg.Forensics != nil {
		fx = forensics.New(*cfg.Forensics)
		fx.Det.Register(reg)
		if tracer != nil {
			tracer.Audit().SetObserver(fx.Rec.ObserveAudit)
			tracer.SetOnEnd(fx.Rec.ObserveSpan)
		}
		probe.det = fx.Det
	}

	// Route admission drops into the observability tails: each shed lands
	// in the forensics shed ring (by tier and class) and the SLO monitor's
	// deliberate-burn split. The observer only copies values on the
	// simulation goroutine — no randomness, no scheduling — so wiring it
	// preserves byte-identity.
	if fx != nil || slo != nil {
		c.SetShedObserver(func(now des.Time, t cluster.Tier, class admission.Class) {
			if fx != nil {
				fx.Rec.ObserveShed(forensics.ShedRec{Time: now, Tier: t.String(), Class: class.String()})
			}
			slo.ObserveShed()
		})
	}

	think := cfg.ThinkTime
	if think == 0 {
		think = 7
	}

	var tw *twin.Observer
	if cfg.Twin != nil {
		tw = twin.New(*cfg.Twin, twin.Model{
			Workload:  c.Workload, // a getter: SetDatasetScale replaces the pointer mid-run
			ThinkTime: think,
			WebCores:  ccfg.WebCores,
			AppCores:  ccfg.AppCores,
			DBCores:   ccfg.DBCores,
			DiskChans: ccfg.DiskChans,
		})
		tw.SetAudit(tracer.Audit())
		if fx != nil {
			tw.SetEpisodeSource(fx.Det)
		}
		tw.Register(reg)
		probe.tw = tw
	}

	f.Start()

	tr := workload.NewTrace(cfg.TraceName, cfg.MaxUsers, cfg.Duration)
	// The probe keeps what the result needs, so the generator keeps no
	// sample per request.
	gcfg := workload.GeneratorConfig{Trace: tr, ThinkTime: think, Tap: probe, NoSamples: true}
	gen := workload.NewGenerator(c.Eng, rng.New(cfg.Seed^0x9e3779b9), gcfg, c.Submit)

	res := &RunResult{
		Mode:       cfg.Mode,
		Controller: cfg.Controller,
		Trace:      cfg.TraceName,
		TierCPU:    map[cluster.Tier][]float64{cluster.App: nil, cluster.DB: nil},
	}

	// Per-second system sampling (VM count, tier CPU, soft resources).
	sampler := c.Eng.Every(des.Second, func() {
		res.VMs = append(res.VMs, c.TotalVMs())
		res.TierCPU[cluster.App] = append(res.TierCPU[cluster.App], c.TierCPU(cluster.App))
		res.TierCPU[cluster.DB] = append(res.TierCPU[cluster.DB], c.TierCPU(cluster.DB))
		_, app, db := c.SoftResources()
		res.SoftHistory = append(res.SoftHistory, [2]int{app, db})
	})

	// Forensics snapshot + detector tick: a read-only observer, same
	// determinism argument as the telemetry scraper.
	var ftick *des.Ticker
	if fx != nil {
		ftick = c.Eng.Every(fx.Config().SnapshotInterval, func() {
			now := c.Eng.Now()
			s := forensics.TierSnapshot{Time: now, Clients: gen.Active()}
			for _, m := range tierMap {
				q, a := c.TierOccupancy(m.ct)
				s.Tiers[m.id] = forensics.TierStat{
					Ready:  c.ReadyCount(m.ct),
					Queue:  q,
					Active: a,
					CPU:    c.TierCPU(m.ct),
				}
			}
			fx.Rec.RecordSnapshot(s)
			fx.Det.Tick(now)
		})
	}

	// Twin snapshot tick: reads cluster accessors and the live client
	// count, solves the model off to the side. Read-only, like the
	// forensics ticker above.
	var ttick *des.Ticker
	if tw != nil {
		ttick = c.Eng.Every(tw.Config().Interval, func() {
			now := c.Eng.Now()
			obs := twin.Observation{Time: now, Clients: gen.Active()}
			for _, m := range [...]struct {
				ct cluster.Tier
				to *twin.TierObs
			}{
				{cluster.Web, &obs.Web},
				{cluster.App, &obs.App},
				{cluster.DB, &obs.DB},
			} {
				m.to.Ready = c.ReadyCount(m.ct)
				m.to.Queue, m.to.Active = c.TierOccupancy(m.ct)
				m.to.CPU = c.TierCPU(m.ct)
			}
			ready := obs.Web.Ready + obs.App.Ready + obs.DB.Ready + c.ReadyCount(cluster.Cache)
			obs.BootingVMs = c.TotalVMs() - ready
			tw.Tick(obs)
		})
	}

	if cfg.DatasetChangeAt > 0 {
		c.Eng.At(cfg.DatasetChangeAt, func() { c.SetDatasetScale(cfg.DatasetChangeTo) })
	}

	var inj *chaos.Injector
	if cfg.Chaos != nil {
		inj = chaos.NewInjector(c, cfg.Chaos, cfg.Seed^0xc4a05)
		inj.SetAudit(tracer.Audit())
		inj.RegisterTelemetry(reg)
		inj.Arm()
	}

	gen.Start()
	c.Eng.RunUntil(cfg.Duration)
	sampler.Stop()
	if ftick != nil {
		ftick.Stop()
	}
	if fx != nil {
		fx.Det.Finish(cfg.Duration)
	}
	if ttick != nil {
		ttick.Stop()
	}
	tw.Finish(cfg.Duration)
	scr.Stop()
	f.Stop()
	// Drain in-flight work briefly so final samples are complete.
	c.Eng.RunUntil(cfg.Duration + 5*des.Second)
	c.CollectInto(f.Warehouse())

	res.Timeline = trimTimeline(gen.Timeline(), cfg.Duration)
	res.Events = f.Events()
	if inj != nil {
		res.FaultWindows = inj.Windows()
	}
	res.Warehouse = f.Warehouse()
	res.FinalEstimates = f.Estimates()
	if tracer != nil {
		res.Tracer = tracer
		res.Audit = tracer.Audit().Events()
	}
	if reg != nil {
		res.Registry = reg
		res.Scraper = scr
		res.SLO = slo
	}
	res.Forensics = fx
	res.Twin = tw
	probe.finish(res)
	res.Sheds = c.Sheds()
	for _, t := range cluster.Tiers() {
		per := c.TierSheds(t)
		for cl, n := range per {
			res.ShedsByClass[cl] += n
		}
	}
	return res
}

func trimTimeline(tl []workload.TimelinePoint, dur des.Time) []workload.TimelinePoint {
	out := tl[:0:0]
	for _, p := range tl {
		if p.Time < dur {
			out = append(out, p)
		}
	}
	return out
}

// MaxRT returns the largest per-second mean response time in the timeline
// — the "response time spike" magnitude of Fig. 1/10/11.
func (r *RunResult) MaxRT() float64 {
	max := 0.0
	for _, p := range r.Timeline {
		if !math.IsNaN(p.MeanRT) && p.MeanRT > max {
			max = p.MeanRT
		}
	}
	return max
}

// RTOverThreshold returns the fraction of seconds whose mean RT exceeds
// the threshold — a stability measure for the comparison figures.
func (r *RunResult) RTOverThreshold(threshold float64) float64 {
	over, n := 0, 0
	for _, p := range r.Timeline {
		if math.IsNaN(p.MeanRT) {
			continue
		}
		n++
		if p.MeanRT > threshold {
			over++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(over) / float64(n)
}

// ScaleOutTimes returns the times of ScaleOut events for a tier (the
// annotation arrows of Fig. 10c/d).
func (r *RunResult) ScaleOutTimes(tier cluster.Tier) []des.Time {
	var out []des.Time
	for _, e := range r.Events {
		if e.Kind == scaling.ScaleOut && e.Tier == tier {
			out = append(out, e.Time)
		}
	}
	return out
}

// TrainDCM derives the DCM baseline's offline profile by running the
// system under the training conditions (original dataset, browse-only,
// steady high load) with ConScale's estimator observing, then freezing the
// resulting recommendation — exactly the "offline training for a specific
// workload" the paper describes.
func TrainDCM(seed uint64, clusterCfg cluster.Config) scaling.DCMProfile {
	clusterCfg.Seed = seed
	c := cluster.New(clusterCfg)
	fcfg := scaling.DefaultConfig(scaling.ConScale)
	shortHorizonSCT(&fcfg, 120*des.Second)
	f := scaling.New(c, fcfg)
	f.Start()

	tr := workload.NewTrace(workload.SlowlyVarying, 4000, 300*des.Second)
	gen := workload.NewGenerator(c.Eng, rng.New(seed+17), workload.GeneratorConfig{
		Trace:     tr,
		ThinkTime: 3,
	}, c.Submit)
	gen.Start()
	c.Eng.RunUntil(300 * des.Second)
	f.Stop()

	// Freeze the tier-level recommendation.
	appOpt, dbOpt := 0, 0
	nApp, nDB := 0, 0
	for name, est := range f.Estimates() {
		switch {
		case len(name) >= 6 && name[:6] == "tomcat":
			appOpt += est.Optimal()
			nApp++
		case len(name) >= 5 && name[:5] == "mysql":
			dbOpt += est.Optimal()
			nDB++
		}
	}
	profile := scaling.DCMProfile{}
	if nApp > 0 {
		profile.AppThreads = appOpt / nApp
	}
	if nDB > 0 {
		perDB := dbOpt / nDB
		profile.DBTotal = perDB * c.ReadyCount(cluster.DB)
	}
	// Fall back to the paper's trained values if the estimator could not
	// converge (tiny training runs in tests).
	if profile.AppThreads == 0 {
		profile.AppThreads = 20
	}
	if profile.DBTotal == 0 {
		profile.DBTotal = 40
	}
	// Sanity floors: a trained profile below the hardware parallelism is
	// always an estimation failure.
	if profile.AppThreads < 8 {
		profile.AppThreads = 8
	}
	if profile.DBTotal < 8 {
		profile.DBTotal = 8
	}
	return profile
}

// AnalyticDCMProfile derives the DCM profile from the closed
// queueing-network model instead of a measurement run — the purely
// analytic offline path ("offline profiling on various concurrency
// workloads through a queueing network model is widely adopted", paper
// Section II-B). It solves the MVA model of a single app server and a
// single DB server of the given deployment and freezes each tier's
// 95%-saturation population.
func AnalyticDCMProfile(clusterCfg cluster.Config) scaling.DCMProfile {
	wl := rubbos.NewWorkload(clusterCfg.Mix, clusterCfg.DatasetScale)
	profile := scaling.DCMProfile{AppThreads: 20, DBTotal: 40}
	if n, ok := qnet.AppServerNetwork(wl, clusterCfg.AppCores).SaturationPopulation(0.95, 400); ok {
		profile.AppThreads = n
	}
	if n, ok := qnet.DBServerNetwork(wl, clusterCfg.DBCores, clusterCfg.DiskChans).SaturationPopulation(0.95, 400); ok {
		profile.DBTotal = n * clusterCfg.DB
	}
	return profile
}
