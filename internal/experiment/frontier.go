package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"conscale/internal/admission"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/workload"
)

// FrontierConfig describes the admission frontier: a full factorial of
// admission policy × controller × trace at one scale-mode client tier,
// measuring where each policy lands on the p99-versus-goodput plane.
// Every cell is one RunScale invocation; the always-admit cells double
// as the per-(controller, trace) baselines the delta columns are
// computed against.
type FrontierConfig struct {
	// Clients is the peak client count per cell (default 100 000, the
	// scale sweep's middle tier).
	Clients int
	// Cells is the n-tier cell count per run (default 16).
	Cells int
	// Duration is the simulated length per run (default 120 s).
	Duration des.Time
	// Seed derives every cell's random streams (default 1).
	Seed uint64
	// Controllers are zoo controller names (default the episode quartet:
	// ec2, dcm, conscale, target-tracking-sct).
	Controllers []string
	// Policies are admission.Parse specs, one frontier point each
	// (default: always, queue-cap, codel, priority with caps sized to
	// the scale cell). "always" must be present — the deltas need it.
	Policies []string
	// Traces are workload trace names (default: all six shapes).
	Traces []string
	// ThinkTime is the population's mean think time in seconds (default
	// 3, the paper's evaluation setting).
	ThinkTime float64
	// Tiers are the cluster tiers the policy is installed on (default
	// web and app: the client edge and the soft-resource bottleneck).
	Tiers []cluster.Tier
	// Workers sizes each run's striper pool as ScaleConfig.Workers does
	// (runs themselves execute sequentially — one run saturates the pool).
	Workers int
	// Progress (optional) is called after each cell with the completed
	// row and the done/total counts.
	Progress func(done, total int, row FrontierRow)
}

// DefaultFrontierConfig returns the standard frontier factorial:
// four admission policies × four controllers × all six traces at the
// 100k-client scale tier.
func DefaultFrontierConfig() FrontierConfig {
	return FrontierConfig{
		Clients:  100_000,
		Cells:    16,
		Duration: 120 * des.Second,
		Seed:     1,
		Controllers: []string{
			"ec2", "dcm", "conscale", "target-tracking-sct",
		},
		Policies: []string{
			admission.Always,
			"queue-cap:cap=300",
			"codel:target=100ms,interval=200ms",
			"priority:cap=300,browse=75",
		},
		Traces:    workload.Names(),
		ThinkTime: 3,
		Tiers:     []cluster.Tier{cluster.Web, cluster.App},
	}
}

func (cfg FrontierConfig) withDefaults() FrontierConfig {
	def := DefaultFrontierConfig()
	if cfg.Clients <= 0 {
		cfg.Clients = def.Clients
	}
	if cfg.Cells <= 0 {
		cfg.Cells = def.Cells
	}
	if cfg.Duration <= 0 {
		cfg.Duration = def.Duration
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if len(cfg.Controllers) == 0 {
		cfg.Controllers = def.Controllers
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = def.Policies
	}
	if len(cfg.Traces) == 0 {
		cfg.Traces = def.Traces
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = def.ThinkTime
	}
	if len(cfg.Tiers) == 0 {
		cfg.Tiers = def.Tiers
	}
	return cfg
}

// FrontierRow is one factorial cell of the frontier — the row shape
// `-run frontier` writes to frontier_summary.csv and BENCH_10.json.
type FrontierRow struct {
	// Trace / Controller / Policy locate the cell in the factorial.
	// Policy is the admission policy name; Spec the full parsed spec.
	Trace      string `json:"trace"`
	Controller string `json:"controller"`
	Policy     string `json:"policy"`
	Spec       string `json:"spec"`
	// Clients is the peak client count of the cell.
	Clients int `json:"clients"`
	// Requests / Goodput / ErrorRate summarise the client outcome;
	// Sheds splits out how many of the failures were admission drops
	// (BrowseSheds + RWSheds = Sheds).
	Requests    int64   `json:"requests"`
	Goodput     int64   `json:"goodput"`
	ErrorRate   float64 `json:"error_rate"`
	Sheds       uint64  `json:"sheds"`
	BrowseSheds uint64  `json:"browse_sheds"`
	RWSheds     uint64  `json:"rw_sheds"`
	// P50Ms/P95Ms/P99Ms/MeanMs are post-warmup client latencies (ms).
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// P99DeltaPct / GoodputDeltaPct position the cell against the
	// always-admit baseline of the same (controller, trace): negative
	// P99DeltaPct means the policy cut the tail, negative
	// GoodputDeltaPct is the goodput it paid for that.
	P99DeltaPct     float64 `json:"p99_delta_pct"`
	GoodputDeltaPct float64 `json:"goodput_delta_pct"`
	// VMs / ScaleActions summarise the fleet trajectory; WallSec the
	// execution cost.
	VMs          int     `json:"vms"`
	ScaleActions int     `json:"scale_actions"`
	WallSec      float64 `json:"wall_sec"`
}

// FrontierResult is the full factorial output.
type FrontierResult struct {
	// Rows holds one entry per (trace, controller, policy) cell, in
	// trace-major, controller-minor, policy-innermost order.
	Rows []FrontierRow
	// Clients echoes the tier the frontier ran at.
	Clients int
}

// RunFrontier executes the factorial sequentially (each run already
// saturates the striper worker pool) and fills in the delta columns
// against each (controller, trace) pair's always-admit cell.
func RunFrontier(cfg FrontierConfig) *FrontierResult {
	cfg = cfg.withDefaults()

	// Validate every policy spec up front so a typo fails before hours
	// of simulation, and pin the always-admit baseline's presence.
	parsed := make([]admission.Config, len(cfg.Policies))
	hasAlways := false
	for i, spec := range cfg.Policies {
		acfg, err := admission.Parse(spec)
		if err != nil {
			panic(err) // specs are validated by callers; a typo here is a programming error
		}
		if _, err := admission.New(acfg); err != nil {
			panic(err)
		}
		parsed[i] = acfg
		if acfg.Policy == admission.Always {
			hasAlways = true
		}
	}
	if !hasAlways {
		panic("experiment: frontier needs an always-admit policy for its baseline columns")
	}

	// The frontier runs on PAPER-sized cells (1-core VMs, 60-thread app
	// pools), not the beefy scale skeleton: 100k clients over 16 such
	// cells is the paper's 7500-user evaluation regime per cell — bursty
	// enough that admission has a real p99-vs-goodput trade to make.
	// The scale skeleton absorbs 100k without queueing at all.
	cell := cluster.DefaultConfig()

	res := &FrontierResult{Clients: cfg.Clients}
	total := len(cfg.Policies) * len(cfg.Controllers) * len(cfg.Traces)
	done := 0
	for _, tr := range cfg.Traces {
		for _, ctrl := range cfg.Controllers {
			for i, acfg := range parsed {
				scfg := ScaleConfig{
					Controller: ctrl,
					Clients:    cfg.Clients,
					Cells:      cfg.Cells,
					Duration:   cfg.Duration,
					Seed:       cfg.Seed,
					TraceName:  tr,
					ThinkTime:  cfg.ThinkTime,
					CellConfig: &cell,
					Workers:    cfg.Workers,
				}
				if acfg.Policy != admission.Always {
					// The always-admit cell runs with NO policy installed, so
					// it is byte-identical to the pre-admission code path —
					// the same trajectory TestAlwaysAdmitByteIdentical pins.
					adm := map[cluster.Tier]admission.Config{}
					for _, t := range cfg.Tiers {
						adm[t] = acfg
					}
					scfg.Admission = adm
				}
				r := RunScale(scfg)
				row := frontierRow(tr, ctrl, cfg.Policies[i], acfg, r)
				res.Rows = append(res.Rows, row)
				done++
				if cfg.Progress != nil {
					cfg.Progress(done, total, row)
				}
			}
		}
	}
	res.fillDeltas()
	return res
}

func frontierRow(tr, ctrl, spec string, acfg admission.Config, r *ScaleResult) FrontierRow {
	ms := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v * 1000
	}
	return FrontierRow{
		Trace:        tr,
		Controller:   ctrl,
		Policy:       acfg.Policy,
		Spec:         spec,
		Clients:      r.Clients,
		Requests:     r.Requests,
		Goodput:      r.Goodput,
		ErrorRate:    r.ErrorRate,
		Sheds:        r.Sheds,
		BrowseSheds:  r.ShedsByClass[admission.ClassBrowse],
		RWSheds:      r.ShedsByClass[admission.ClassReadWrite],
		P50Ms:        ms(r.P50),
		P95Ms:        ms(r.P95),
		P99Ms:        ms(r.P99),
		MeanMs:       ms(r.MeanRT),
		VMs:          r.VMs,
		ScaleActions: r.ScaleActions,
		WallSec:      r.WallSec,
	}
}

// fillDeltas computes each row's position against the always-admit cell
// of the same (controller, trace).
func (res *FrontierResult) fillDeltas() {
	base := map[[2]string]FrontierRow{}
	for _, r := range res.Rows {
		if r.Policy == admission.Always {
			base[[2]string{r.Controller, r.Trace}] = r
		}
	}
	for i := range res.Rows {
		r := &res.Rows[i]
		b, ok := base[[2]string{r.Controller, r.Trace}]
		if !ok {
			continue
		}
		if b.P99Ms > 0 {
			r.P99DeltaPct = 100 * (r.P99Ms - b.P99Ms) / b.P99Ms
		}
		if b.Goodput > 0 {
			r.GoodputDeltaPct = 100 * float64(r.Goodput-b.Goodput) / float64(b.Goodput)
		}
	}
}

// BestTailCut returns the row with the largest p99 reduction against
// its always-admit baseline, over cells whose goodput loss stays within
// maxGoodputLossPct (a positive number of percent). ok is false when no
// non-always cell qualifies.
func (res *FrontierResult) BestTailCut(maxGoodputLossPct float64) (FrontierRow, bool) {
	best, ok := FrontierRow{}, false
	for _, r := range res.Rows {
		if r.Policy == admission.Always {
			continue
		}
		if r.GoodputDeltaPct < -maxGoodputLossPct {
			continue
		}
		if !ok || r.P99DeltaPct < best.P99DeltaPct {
			best, ok = r, true
		}
	}
	return best, ok
}

// FrontierReport is the `-run frontier` JSON artifact, BENCH_10.json
// (schema conscale-bench/10).
type FrontierReport struct {
	// Schema identifies the report format.
	Schema string `json:"schema"`
	// Clients is the client tier the factorial ran at.
	Clients int `json:"clients"`
	// Rows holds one entry per (trace, controller, policy) cell.
	Rows []FrontierRow `json:"frontier"`
}

// WriteFrontierReport writes the factorial as indented JSON.
func WriteFrontierReport(w io.Writer, res *FrontierResult) error {
	rep := FrontierReport{
		Schema:  "conscale-bench/10",
		Clients: res.Clients,
		Rows:    res.Rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFrontierCSV writes the factorial as frontier_summary.csv.
func WriteFrontierCSV(w io.Writer, res *FrontierResult) {
	fmt.Fprintln(w, "trace,controller,policy,spec,clients,requests,goodput,error_rate,sheds,browse_sheds,rw_sheds,p50_ms,p95_ms,p99_ms,mean_ms,p99_delta_pct,goodput_delta_pct,vms,scale_actions,wall_s")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s,%s,%s,%q,%d,%d,%d,%.4f,%d,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.2f,%d,%d,%.2f\n",
			r.Trace, r.Controller, r.Policy, r.Spec, r.Clients, r.Requests, r.Goodput,
			r.ErrorRate, r.Sheds, r.BrowseSheds, r.RWSheds, r.P50Ms, r.P95Ms, r.P99Ms,
			r.MeanMs, r.P99DeltaPct, r.GoodputDeltaPct, r.VMs, r.ScaleActions, r.WallSec)
	}
}

// RenderFrontier prints the factorial as an aligned ASCII table, sorted
// by trace then controller then p99 — the frontier reads top-down per
// (trace, controller) block.
func RenderFrontier(w io.Writer, res *FrontierResult) {
	rows := append([]FrontierRow(nil), res.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Controller != b.Controller {
			return a.Controller < b.Controller
		}
		return a.P99Ms < b.P99Ms
	})
	fmt.Fprintf(w, "%-16s %-20s %-10s %9s %9s %8s %8s %8s %9s %9s\n",
		"trace", "controller", "policy", "p99_ms", "Δp99%", "goodput", "Δgood%", "sheds", "err", "wall_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-20s %-10s %9.1f %9.1f %8d %8.2f %8d %9.4f %9.1f\n",
			r.Trace, r.Controller, r.Policy, r.P99Ms, r.P99DeltaPct,
			r.Goodput, r.GoodputDeltaPct, r.Sheds, r.ErrorRate, r.WallSec)
	}
}
