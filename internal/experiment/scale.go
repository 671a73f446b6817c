package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"conscale/internal/admission"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/rng"
	"conscale/internal/scaling"
	"conscale/internal/telemetry"
	"conscale/internal/workload"
)

// ScaleConfig describes one scale-mode run: a streaming open-loop client
// population (O(1) memory in the client count) driving a fleet of
// independent n-tier cells, each on its own stripe shard of a
// conservatively synchronised des.Striper. This is the configuration
// that takes the simulator from RUBBoS-scale (~10³) to ~10⁶ concurrent
// clients on one machine.
type ScaleConfig struct {
	// Mode names the paper policy every cell runs when Controller is
	// empty.
	Mode scaling.Mode
	// Controller (if non-empty) names the registered policy that drives
	// every cell — same contract as RunConfig.Controller.
	Controller string
	// Admission optionally installs per-tier admission policies on every
	// cell, merged over CellConfig's own Admission map with the entries
	// here winning per tier, as RunConfig.Admission does. Empty — or an
	// explicit always-admit policy — leaves the trajectory byte-identical
	// to the pre-admission code path.
	Admission map[cluster.Tier]admission.Config
	// CellConfig overrides the per-cell deployment (nil takes
	// ScaleCellConfig, the beefy 4/8/8-core skeleton sized for ~10⁶
	// clients). The admission frontier swaps in the paper-sized
	// cluster.DefaultConfig so its 100k population genuinely stresses
	// the cells. Seed and Engine are overwritten per cell.
	CellConfig *cluster.Config
	// Clients is the peak notional client count across the whole
	// population (the trace's MaxUsers).
	Clients int
	// Cells is the number of independent n-tier cells the frontdoor
	// shards requests over (default 16). Held fixed across client tiers
	// so the deployment skeleton — and its memory — is constant.
	Cells int
	// Duration is the trace length (default 120 s).
	Duration des.Time
	// Seed derives every random stream of the run (per-cell cluster
	// seeds are split from it).
	Seed uint64
	// TraceName is the workload shape (default the Fig. 9 "large
	// variations" trace).
	TraceName string
	// ThinkTime is the population's mean think time in seconds (default
	// 7, the RUBBoS default); ignored when Classes is set.
	ThinkTime float64
	// Classes optionally splits the population into think-time classes
	// (see workload.Class). Empty means one class with ThinkTime.
	Classes []workload.Class
	// EdgeDelay is the one-way client↔cell network delay (default 20 ms).
	// It is also the striper's conservative lookahead horizon — the
	// minimum cross-shard delay that makes parallel windows safe.
	EdgeDelay des.Time
	// Workers sizes the striper's persistent pinned worker pool that
	// executes shard windows: zero means GOMAXPROCS, one is sequential,
	// and larger values are clamped to the shard count. Every count is
	// byte-identical; see TestScaleStripedMatchesSequential.
	Workers int
	// Telemetry arms a frontdoor telemetry registry (arrival counter,
	// in-flight gauge, client RT histogram) on the run.
	Telemetry bool
	// WarmupSkip excludes the initial span from the tail estimators
	// (default 15 s).
	WarmupSkip des.Time
}

// DefaultScaleConfig returns the standard scale-mode cell fleet and
// population parameters for a mode × client-count sweep point.
func DefaultScaleConfig(mode scaling.Mode, clients int) ScaleConfig {
	return ScaleConfig{
		Mode:       mode,
		Clients:    clients,
		Cells:      16,
		Duration:   120 * des.Second,
		Seed:       1,
		TraceName:  workload.LargeVariations,
		ThinkTime:  7,
		EdgeDelay:  20 * des.Millisecond,
		WarmupSkip: 15 * des.Second,
	}
}

// Validate reports a non-positive Clients, a negative Cells, Duration or
// Workers, and an unknown Mode. Zero sizes take the defaults.
func (cfg ScaleConfig) Validate() error {
	var errs []error
	if cfg.Clients <= 0 {
		errs = append(errs, fmt.Errorf("experiment: scale Clients must be positive, got %d", cfg.Clients))
	}
	switch cfg.Mode {
	case scaling.EC2, scaling.DCM, scaling.ConScale:
	default:
		errs = append(errs, fmt.Errorf("experiment: scale Mode %v is not a paper policy", cfg.Mode))
	}
	return errors.Join(append(errs, checkSizes(size{"scale Cells", float64(cfg.Cells)},
		size{"scale Duration", float64(cfg.Duration)},
		size{"scale Workers", float64(cfg.Workers)}))...)
}

// ScaleCellConfig returns the per-cell deployment used by the scale
// mode: the paper's three-tier structure on beefier 4/8/8-core VMs so a
// 16-cell fleet absorbs ~10⁶ clients within each cell's scale-out bound,
// with soft resources sized to the larger VMs (knee ≈ 10 per core).
func ScaleCellConfig() cluster.Config {
	c := cluster.DefaultConfig()
	c.WebCores, c.AppCores, c.DBCores = 4, 8, 8
	c.WebThreads = 2000
	c.AppThreads = 80
	c.DBConns = 60
	c.MaxVMsPerTier = 4
	c.AcceptQueue = 6000
	return c
}

// ScaleResult aggregates one scale-mode run: client-observed latency from
// the streaming population, fleet state, and the execution-cost metrics
// (wall time, events, peak heap) `-run scale` reports.
type ScaleResult struct {
	// Mode and the population parameters of the run. Controller echoes
	// ScaleConfig.Controller ("" when Mode named the policy).
	Mode       scaling.Mode
	Controller string
	Clients    int
	Cells      int
	// Duration is the simulated trace length.
	Duration des.Time

	// Timeline is the client-observed per-second series.
	Timeline []workload.TimelinePoint
	// Stream is the population's constant-memory aggregate.
	Stream *workload.StreamStats
	// P50/P95/P99 are streaming tail estimates in seconds, post-warmup.
	P50, P95, P99 float64
	// MeanRT is the post-warmup mean successful response time (seconds).
	MeanRT float64
	// ErrorRate is the failed fraction over the whole run; Goodput the
	// successful completion count.
	ErrorRate float64
	Goodput   int64
	// Requests counts all issued requests.
	Requests int64

	// VMs is the fleet-wide VM count at the end of the run; ScaleActions
	// the total controller actions (scale-out/in, pool resizes) across
	// cells.
	VMs          int
	ScaleActions int

	// Workers is the striper worker-pool size the run executed on (1 =
	// sequential). The trajectory is identical at every value; only
	// WallSec changes.
	Workers int
	// Stripe counts the striper's synchronization work: windows run and
	// skipped, barriers that carried traffic, cross-shard events delivered.
	Stripe des.StripeStats

	// Events is the total simulation events executed; EventsPerSec the
	// wall-clock execution rate; WallSec the wall-clock run time.
	Events       uint64
	EventsPerSec float64
	WallSec      float64
	// PeakHeapBytes is the maximum live Go heap observed during the run
	// (sampled every 5 simulated seconds); FinalHeapBytes the live heap
	// after the run with the result still referenced. Both are in-process
	// measures, comparable across runs in one sweep; ProcessPeakRSS gives
	// the OS-level high-water mark of the whole process.
	PeakHeapBytes  uint64
	FinalHeapBytes uint64

	// Sheds counts admission-policy drops across all cells (zero without
	// admission policies); ShedsByClass splits the count by priority
	// class.
	Sheds        uint64
	ShedsByClass [admission.NumClasses]uint64

	// Registry is the frontdoor telemetry registry (nil unless
	// ScaleConfig.Telemetry).
	Registry *telemetry.Registry
}

// RunScale executes one scale-mode run: shard 0 (the frontdoor) hosts
// the streaming population; shards 1..Cells each host one independent
// n-tier cell with its own scaling framework and seed-split random
// streams. Requests are routed round-robin over the cells across the
// network edge (EdgeDelay each way, which doubles as the striper's
// lookahead horizon). The trajectory is deterministic and identical at
// any worker count.
func RunScale(cfg ScaleConfig) *ScaleResult {
	if cfg.Clients <= 0 {
		panic("experiment: scale run needs a positive client count")
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 16
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 120 * des.Second
	}
	if cfg.TraceName == "" {
		cfg.TraceName = workload.LargeVariations
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 7
	}
	if cfg.EdgeDelay <= 0 {
		cfg.EdgeDelay = 20 * des.Millisecond
	}
	if cfg.WarmupSkip <= 0 {
		cfg.WarmupSkip = 15 * des.Second
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	str := des.NewStriper(cfg.Cells+1, cfg.EdgeDelay)
	str.SetWorkers(workers)
	defer str.Close()
	front := str.Shard(0)

	// Seed-split streams: one master source hands every cell its own
	// independent seed; the generator gets its own derived stream.
	master := rng.New(cfg.Seed)
	ccfg := ScaleCellConfig()
	if cfg.CellConfig != nil {
		ccfg = *cfg.CellConfig
	}
	ccfg.Admission = mergeAdmission(ccfg.Admission, cfg.Admission)
	fcfg := profiledConfig(cfg.Mode, AnalyticDCMProfile(ccfg))
	// A 2-minute scale run must estimate from sub-minute windows or
	// ConScale never acts.
	shortHorizonSCT(fcfg, 45*des.Second)
	cells := make([]*cluster.Cluster, cfg.Cells)
	drs := make([]*scaling.Framework, cfg.Cells)
	for i := range cells {
		cc := ccfg
		cc.Seed = master.Uint64()
		cc.Engine = str.Shard(i + 1).Eng
		cells[i] = cluster.New(cc)
		drs[i] = newFramework(cells[i], cfg.Controller, cfg.Mode, cc.Seed, *fcfg)
		drs[i].Start()
	}

	// Frontdoor: the streaming population submits over the network edge
	// to a round-robin cell; the response crosses the edge back. Both
	// hops carry exactly the lookahead horizon, the minimum legal delay.
	gcfg := workload.GeneratorConfig{
		Trace:     workload.NewTrace(cfg.TraceName, cfg.Clients, cfg.Duration),
		ThinkTime: cfg.ThinkTime,
		Streaming: true,
		Classes:   cfg.Classes,
		TailFrom:  cfg.WarmupSkip,
	}
	var reg *telemetry.Registry
	if cfg.Telemetry {
		reg = telemetry.NewRegistry()
		gcfg.Tap = &frontDoorProbe{
			arrivals: reg.Counter("conscale_scale_arrivals_total",
				"Requests issued by the streaming scale-mode population."),
			inflight: reg.Gauge("conscale_scale_inflight",
				"Scale-mode requests currently between frontdoor and cells."),
			clientRT: reg.Histogram("conscale_client_rt_seconds",
				"Client-observed end-to-end response time of successful requests."),
		}
	}
	door := &frontDoor{str: str, edge: cfg.EdgeDelay, cells: make([]workload.Submitter, cfg.Cells)}
	for i, c := range cells {
		door.cells[i] = c.Submit
	}
	gen := workload.NewGenerator(front.Eng, rng.New(cfg.Seed^0x9e3779b9), gcfg, door.submit)

	// Heap high-water sampling in simulated time: cheap (a few dozen
	// reads per run), deterministic placement, and it reads — never
	// mutates — runtime state, so the trajectory is untouched.
	var peakHeap uint64
	heapTick := front.Eng.Every(5*des.Second, func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
	})

	gen.Start()
	t0 := time.Now()
	str.RunUntil(cfg.Duration)
	for _, f := range drs {
		f.Stop()
	}
	heapTick.Stop()
	// Drain: in-flight work plus the two edge hops back to the frontdoor.
	str.RunUntil(cfg.Duration + 5*des.Second)
	wall := time.Since(t0).Seconds()

	res := &ScaleResult{
		Mode:       cfg.Mode,
		Controller: cfg.Controller,
		Clients:    cfg.Clients,
		Cells:      cfg.Cells,
		Duration:   cfg.Duration,
		Workers:    str.Workers(),
		Stripe:     str.Stats(),
		Timeline:   trimTimeline(gen.Timeline(), cfg.Duration),
		Stream:     gen.Stream(),
		WallSec:    wall,
		Events:     str.Fired(),
		Registry:   reg,
	}
	if wall > 0 {
		res.EventsPerSec = float64(res.Events) / wall
	}
	tails := gen.TailLatencies(cfg.WarmupSkip, 50, 95, 99)
	res.P50, res.P95, res.P99 = tails[0], tails[1], tails[2]
	res.MeanRT = res.Stream.MeanRT()
	res.ErrorRate = gen.ErrorRate()
	res.Goodput = res.Stream.OK
	res.Requests = res.Stream.Issued
	for i, c := range cells {
		res.VMs += c.TotalVMs()
		res.ScaleActions += len(drs[i].Events())
		res.Sheds += c.Sheds()
		for _, t := range cluster.Tiers() {
			per := c.TierSheds(t)
			for cl, n := range per {
				res.ShedsByClass[cl] += n
			}
		}
	}
	res.PeakHeapBytes = peakHeap
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.FinalHeapBytes = ms.HeapAlloc
	if res.FinalHeapBytes > res.PeakHeapBytes {
		res.PeakHeapBytes = res.FinalHeapBytes
	}
	return res
}

// frontDoor is the client side of the network edge: a workload.Submitter
// that routes each request to a round-robin cell across the striper and
// brings the outcome back. Both crossings carry exactly the lookahead
// horizon, the minimum legal delay.
type frontDoor struct {
	str  *des.Striper
	edge des.Time
	// cells[i] submits into the cell on shard i+1.
	cells []workload.Submitter
	next  int
	// idle holds the hops waiting for reuse. A hop is taken in submit and
	// returned in hopHome, both events of shard 0, so the list has one
	// owner at any worker count.
	idle []*hop
}

// hop is one request's round trip over the edge: shard 0 fills in the
// caller's callback and the cell, the cell's shard the outcome, and the
// striper's barrier orders each hand-over. cellDone is bound to the
// record once, so a crossing allocates nothing.
type hop struct {
	door     *frontDoor
	done     func(ok bool)
	cell     int
	ok       bool
	cellDone func(ok bool)
	// out is set from submit to landing. A hop that lands while not out
	// was completed twice by its cell; passing it on would complete
	// whichever request holds the record next.
	out bool
}

func (d *frontDoor) submit(done func(ok bool)) {
	var h *hop
	if n := len(d.idle); n > 0 {
		h, d.idle = d.idle[n-1], d.idle[:n-1]
	} else {
		h = &hop{door: d}
		h.cellDone = h.leaveCell
	}
	h.done, h.cell, h.out = done, d.next, true
	d.next++
	if d.next == len(d.cells) {
		d.next = 0
	}
	d.str.Shard(0).SendArg(h.cell+1, d.edge, hopEnterCell, h)
}

// hopEnterCell is the request reaching its cell (an event of the cell's
// shard).
func hopEnterCell(arg any) {
	h := arg.(*hop)
	h.door.cells[h.cell](h.cellDone)
}

// leaveCell is the cell's completion callback: the outcome starts back.
func (h *hop) leaveCell(ok bool) {
	h.ok = ok
	h.door.str.Shard(h.cell+1).SendArg(0, h.door.edge, hopHome, h)
}

// hopHome is the outcome reaching the front door (an event of shard 0).
func hopHome(arg any) {
	h := arg.(*hop)
	if !h.out {
		panic("experiment: a scale-mode request was completed twice (a hop landed that is not outstanding)")
	}
	done, ok := h.done, h.ok
	h.done, h.out = nil, false
	h.door.idle = append(h.door.idle, h)
	done(ok)
}

// ProcessPeakRSS returns the process's peak resident set size in bytes
// (VmHWM from /proc/self/status), or 0 where unavailable. It is a
// whole-process high-water mark: within a sweep it only ever grows, so
// per-run comparisons should use ScaleResult.PeakHeapBytes and treat
// this as the machine-level footprint of the largest run.
func ProcessPeakRSS() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// ScaleRow is one sweep point of the scale report — the row shape
// `-run scale` writes to scale_summary.csv and BENCH_7.json.
type ScaleRow struct {
	// Mode is the framework name (ec2/dcm/conscale).
	Mode string `json:"mode"`
	// Clients is the peak notional client count; Cells the cell count.
	Clients int `json:"clients"`
	Cells   int `json:"cells"`
	// Workers is the striper worker-pool size the run executed on (1 =
	// sequential; the trajectory is identical at every value).
	Workers int `json:"workers"`
	// DurationSec is the simulated length; WallSec the wall-clock cost.
	DurationSec float64 `json:"duration_sec"`
	WallSec     float64 `json:"wall_sec"`
	// Events is the executed event count; EventsPerSec the rate.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakHeapMB is the in-run live-heap high-water mark in MiB.
	PeakHeapMB float64 `json:"peak_heap_mb"`
	// Requests / Goodput / ErrorRate summarise the client outcome.
	Requests  int64   `json:"requests"`
	Goodput   int64   `json:"goodput"`
	ErrorRate float64 `json:"error_rate"`
	// P50Ms/P95Ms/P99Ms/MeanMs are post-warmup client latencies (ms).
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// VMs is the final fleet VM count; ScaleActions the controller
	// actions across all cells.
	VMs          int `json:"vms"`
	ScaleActions int `json:"scale_actions"`
}

// Row converts a result to its report shape.
func (r *ScaleResult) Row() ScaleRow {
	ms := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v * 1000
	}
	return ScaleRow{
		Mode:         r.Mode.String(),
		Clients:      r.Clients,
		Cells:        r.Cells,
		Workers:      r.Workers,
		DurationSec:  float64(r.Duration),
		WallSec:      r.WallSec,
		Events:       r.Events,
		EventsPerSec: r.EventsPerSec,
		PeakHeapMB:   float64(r.PeakHeapBytes) / (1 << 20),
		Requests:     r.Requests,
		Goodput:      r.Goodput,
		ErrorRate:    r.ErrorRate,
		P50Ms:        ms(r.P50),
		P95Ms:        ms(r.P95),
		P99Ms:        ms(r.P99),
		MeanMs:       ms(r.MeanRT),
		VMs:          r.VMs,
		ScaleActions: r.ScaleActions,
	}
}

// ScaleReport is the `-run scale` JSON artifact, BENCH_7.json (schema
// conscale-bench/7).
type ScaleReport struct {
	// Schema identifies the report format.
	Schema string `json:"schema"`
	// ProcessPeakRSSMB is the whole-process high-water mark after the
	// sweep (the footprint of the largest run).
	ProcessPeakRSSMB float64 `json:"process_peak_rss_mb"`
	// Rows holds one entry per (mode, clients) sweep point.
	Rows []ScaleRow `json:"scale"`
}

// WriteScaleReport writes the sweep as indented JSON.
func WriteScaleReport(w io.Writer, rows []ScaleRow) error {
	rep := ScaleReport{
		Schema:           "conscale-bench/7",
		ProcessPeakRSSMB: float64(ProcessPeakRSS()) / (1 << 20),
		Rows:             rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ScaleOutcome prints the sweep as an aligned ASCII table and writes
// it as scale_summary.csv and BENCH_7.json, plus the client timeline of
// one showcase run (nil: none) as scale_timeline_<mode>_<clients>.csv.
func ScaleOutcome(rows []ScaleRow, showcase *ScaleResult) Outcome {
	arts := []Artifact{{"scale_summary.csv", sticky(func(w io.Writer) {
		fmt.Fprintln(w, "mode,clients,cells,workers,duration_s,wall_s,events,events_per_s,peak_heap_mb,requests,goodput,error_rate,p50_ms,p95_ms,p99_ms,vms,scale_actions")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%d,%d,%d,%.0f,%.2f,%d,%.0f,%.1f,%d,%d,%.4f,%.1f,%.1f,%.1f,%d,%d\n",
				r.Mode, r.Clients, r.Cells, r.Workers, r.DurationSec, r.WallSec, r.Events,
				r.EventsPerSec, r.PeakHeapMB, r.Requests, r.Goodput, r.ErrorRate,
				r.P50Ms, r.P95Ms, r.P99Ms, r.VMs, r.ScaleActions)
		}
	})}}
	if showcase != nil {
		arts = append(arts, Artifact{
			fmt.Sprintf("scale_timeline_%s_%d.csv", sanitize(showcase.Mode.String()), showcase.Clients),
			sticky(func(w io.Writer) { WriteScaleTimelineCSV(w, showcase) })})
	}
	return Outcome{
		Summary:   sticky(func(w io.Writer) { renderScale(w, rows) }),
		Artifacts: append(arts, Artifact{"BENCH_7.json", func(w io.Writer) error { return WriteScaleReport(w, rows) }}),
	}
}

// renderScale prints the sweep as an aligned ASCII table.
func renderScale(w io.Writer, rows []ScaleRow) {
	fmt.Fprintf(w, "%-9s %9s %6s %4s %8s %12s %10s %9s %8s %8s %8s %6s %7s\n",
		"mode", "clients", "cells", "wrk", "wall_s", "events", "events/s", "heap_MB", "p50_ms", "p99_ms", "err", "vms", "actions")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %9d %6d %4d %8.1f %12d %10.0f %9.1f %8.1f %8.1f %7.4f %6d %7d\n",
			r.Mode, r.Clients, r.Cells, r.Workers, r.WallSec, r.Events, r.EventsPerSec,
			r.PeakHeapMB, r.P50Ms, r.P99Ms, r.ErrorRate, r.VMs, r.ScaleActions)
	}
}

// WriteScaleTimelineCSV writes the client-observed per-second series of
// one run — the byte-identity surface the striped-vs-sequential
// regression test compares.
func WriteScaleTimelineCSV(w io.Writer, r *ScaleResult) {
	fmt.Fprintln(w, "time_s,users,throughput,mean_rt_ms,errors")
	for _, p := range r.Timeline {
		rt := ""
		if !math.IsNaN(p.MeanRT) {
			rt = fmt.Sprintf("%.3f", p.MeanRT*1000)
		}
		fmt.Fprintf(w, "%.0f,%d,%.2f,%s,%d\n", float64(p.Time), p.Users, p.Throughput, rt, p.Errors)
	}
}
