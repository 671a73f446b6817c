package experiment

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"conscale/internal/admission"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// HypothesisConfig tunes the `-run hypothesis` validation harness.
type HypothesisConfig struct {
	// IDs selects a subset of HypothesisIDs() (empty = all).
	IDs []string
	// Seeds is the number of seeds per cell (default 5).
	Seeds int
	// BaseSeed is the first seed (default 1; cells use BaseSeed..BaseSeed+Seeds-1).
	BaseSeed uint64
	// Duration is the steady-regime cell run length (default 300 s).
	Duration des.Time
	// SweepDuration is the trace-sweep cell run length (default 720 s,
	// the paper's evaluation length).
	SweepDuration des.Time
	// Users is the trace-sweep peak population (default 7500).
	Users int
	// Traces lists the sweep traces (default the six standard ones).
	Traces []string
}

func (cfg HypothesisConfig) withDefaults() HypothesisConfig {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 5
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 300 * des.Second
	}
	if cfg.SweepDuration <= 0 {
		cfg.SweepDuration = 720 * des.Second
	}
	if cfg.Users <= 0 {
		cfg.Users = 7500
	}
	if len(cfg.Traces) == 0 {
		cfg.Traces = workload.Names()
	}
	return cfg
}

// Hypothesis verdicts.
const (
	// VerdictSupported: every declared bound held with preconditions met.
	VerdictSupported = "SUPPORTED"
	// VerdictRefuted: preconditions held but at least one bound failed.
	VerdictRefuted = "REFUTED"
	// VerdictInconclusive: a precondition failed — the regime never
	// applied, so the data neither supports nor refutes the claim.
	VerdictInconclusive = "INCONCLUSIVE"
)

// HypoMetric is one checked quantity of a hypothesis: the mean across
// seeds, its 95% confidence interval (Student t), and the declared
// bound with its direction.
type HypoMetric struct {
	// Name labels the metric (includes the cell, e.g.
	// "rt_rel_err[users=2000]").
	Name string
	// Mean, Lo, Hi are the across-seed mean and its 95% CI.
	Mean, Lo, Hi float64
	// Bound is the declared limit; Op its direction ("<=" or ">=")
	// applied to Mean.
	Bound float64
	Op    string
	// Pass reports whether Mean satisfies Op Bound.
	Pass bool
	// N is the number of seeds behind the statistic.
	N int
}

// HypothesisResult is one executed hypothesis: the declaration, the
// verdict, the checked metrics, and the per-cell rows for the CSV
// artifact.
type HypothesisResult struct {
	// ID, Claim, Regime restate the declaration: the directional claim
	// and the preconditions under which it is expected to hold.
	ID     string
	Claim  string
	Regime string
	// Gated marks hypotheses whose failure should fail CI.
	Gated bool
	// Verdict is VerdictSupported / VerdictRefuted / VerdictInconclusive.
	Verdict string
	// Detail explains the verdict in one line.
	Detail string
	// Metrics are the checked quantities.
	Metrics []HypoMetric
	// Columns and Rows carry the per-cell data for
	// results/hypothesis_<id>.csv.
	Columns []string
	Rows    [][]string
}

// hypoSpec is one declared hypothesis and its executor.
type hypoSpec struct {
	id, claim, regime string
	gated             bool
	run               func(cfg HypothesisConfig) HypothesisResult
}

func hypoSpecs() []hypoSpec {
	return []hypoSpec{
		{
			id: "twin-steady",
			claim: "DES ≡ MVA: in steady-state regimes the simulator's mean RT, tier " +
				"utilizations, and Little's law agree with the analytical twin within documented bounds",
			regime: "constant trace below the saturation knee, fixed think time, " +
				"≥10 applicable twin samples per run after 60 s warmup",
			gated: true,
			run:   runTwinSteady,
		},
		{
			id:    "drift-calm",
			claim: "the twin raises zero drift flags in the calibrated regime under both the EC2 and ConScale controllers",
			regime: "constant trace at moderate load (no scaling triggers), " +
				"≥10 applicable twin samples per run",
			gated: true,
			run:   runDriftCalm,
		},
		{
			id: "blame-conservation",
			claim: "latency blame is conservative: summing a blame row's per-tier components " +
				"(queue, pool wait, service, dispatch, shed, ...) recovers the class's mean RT " +
				"within scheduling epsilons — with and without an admission shedder dropping load",
			regime: "big-spike trace under EC2-AutoScaling with 1/16 head sampling, bare and " +
				"with queue-cap:cap=300 on web+app; windows with ≥5 sampled requests per class, " +
				"≥1 shed in every armed run",
			gated: true,
			run:   runBlameConservation,
		},
		{
			id:    "sct-dominance",
			claim: "SCT-driven concurrency adaptation keeps tails down: ConScale p99 ≤ EC2 p99 across the six standard traces",
			regime: "paper evaluation settings (7500 peak users, 720 s, 30 s warmup skip), " +
				"paired seeds per trace",
			gated: false,
			run:   runSCTDominance,
		},
	}
}

// HypothesisIDs returns the declared hypothesis IDs in execution order.
func HypothesisIDs() []string {
	specs := hypoSpecs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.id
	}
	return out
}

// Validate reports every unknown hypothesis id or sweep trace and
// negative size. Zero fields take the defaults.
func (cfg HypothesisConfig) Validate() error {
	return errors.Join(
		checkNames(cfg.IDs, func(id string) error {
			if !slices.Contains(HypothesisIDs(), id) {
				return fmt.Errorf("experiment: unknown hypothesis %q; available: %s",
					id, strings.Join(HypothesisIDs(), ", "))
			}
			return nil
		}),
		checkNames(cfg.Traces, workload.CheckTrace),
		checkSizes(size{"hypothesis Seeds", float64(cfg.Seeds)},
			size{"hypothesis Duration", float64(cfg.Duration)},
			size{"hypothesis SweepDuration", float64(cfg.SweepDuration)},
			size{"hypothesis Users", float64(cfg.Users)}),
	)
}

// RunHypotheses executes the selected hypotheses and returns their
// results in declaration order. A config that fails Validate returns
// its error before any run starts.
func RunHypotheses(cfg HypothesisConfig) ([]HypothesisResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var out []HypothesisResult
	for _, s := range hypoSpecs() {
		if len(cfg.IDs) > 0 && !slices.Contains(cfg.IDs, s.id) {
			continue
		}
		r := s.run(cfg)
		r.ID, r.Claim, r.Regime, r.Gated = s.id, s.claim, s.regime, s.gated
		out = append(out, r)
	}
	return out, nil
}

// GatedFailures returns the gated hypotheses that did not come back
// SUPPORTED — the CI exit condition.
func GatedFailures(results []HypothesisResult) []string {
	var out []string
	for _, r := range results {
		if r.Gated && r.Verdict != VerdictSupported {
			out = append(out, fmt.Sprintf("%s: %s (%s)", r.ID, r.Verdict, r.Detail))
		}
	}
	return out
}

// twinWarmup is the span excluded from twin-sample aggregation (the
// closed-loop population needs a few ticks to settle).
const twinWarmup = 60 * des.Second

// minApplicableSamples is the twin-steady/drift-calm precondition: a
// run with fewer applicable post-warmup samples never entered the
// regime.
const minApplicableSamples = 10

// twinRunStats aggregates one twin-armed run's post-warmup samples.
type twinRunStats struct {
	applicable int
	meanRelErr float64
	worstRel   float64
	meanLittle float64
	meanGap    float64
	drifts     int
}

func twinStats(res *RunResult) twinRunStats {
	var st twinRunStats
	for _, s := range res.Twin.Samples() {
		if s.Time < twinWarmup || !s.Applicable {
			continue
		}
		st.applicable++
		st.meanRelErr += s.RTRelErr
		st.meanLittle += s.LittlesResidual
		st.meanGap += s.UtilGap
		if s.RTRelErr > st.worstRel {
			st.worstRel = s.RTRelErr
		}
	}
	if st.applicable > 0 {
		f := float64(st.applicable)
		st.meanRelErr /= f
		st.meanLittle /= f
		st.meanGap /= f
	}
	st.drifts = int(res.Twin.DriftCount())
	return st
}

// steadyCells are the twin-steady operating points: populations below,
// at half of, and near the 1/1/1 knee (~3150 for the browse-only mix at
// 3 s think). The RT bound widens at the 2000-user cell — the app tier
// sits near 65% utilization there, where the exponential-service
// assumption of MVA deviates most from the simulator's configured
// demand CV (the measured table lives in EXPERIMENTS.md).
var steadyCells = []struct {
	users int
	bound float64
}{
	{1000, 0.10},
	{2000, 0.12},
	{2500, 0.10},
}

func runTwinSteady(cfg HypothesisConfig) HypothesisResult {
	var cfgs []RunConfig
	type cellKey struct {
		users int
		seed  uint64
	}
	var keys []cellKey
	for _, cell := range steadyCells {
		for s := 0; s < cfg.Seeds; s++ {
			rc := DefaultRunConfig(scaling.EC2, workload.Constant)
			rc.MaxUsers = cell.users
			rc.Duration = cfg.Duration
			rc.Seed = cfg.BaseSeed + uint64(s)
			rc.Twin = &twin.Config{}
			cfgs = append(cfgs, rc)
			keys = append(keys, cellKey{cell.users, rc.Seed})
		}
	}
	results := RunMany(cfgs)

	r := HypothesisResult{
		Columns: []string{"users", "seed", "applicable", "rt_rel_err", "worst_rt_rel_err",
			"littles_resid", "util_gap", "drift_flags"},
	}
	perCell := map[int][]float64{}
	var littles, gaps []float64
	totalDrift, shortRuns := 0, 0
	for i, res := range results {
		st := twinStats(res)
		k := keys[i]
		r.Rows = append(r.Rows, []string{
			strconv.Itoa(k.users), strconv.FormatUint(k.seed, 10), strconv.Itoa(st.applicable),
			fmtF(st.meanRelErr), fmtF(st.worstRel), fmtF(st.meanLittle), fmtF(st.meanGap),
			strconv.Itoa(st.drifts),
		})
		if st.applicable < minApplicableSamples {
			shortRuns++
			continue
		}
		perCell[k.users] = append(perCell[k.users], st.meanRelErr)
		littles = append(littles, st.meanLittle)
		gaps = append(gaps, st.meanGap)
		totalDrift += st.drifts
	}

	for _, cell := range steadyCells {
		mean, lo, hi := meanCI(perCell[cell.users])
		r.Metrics = append(r.Metrics, HypoMetric{
			Name: fmt.Sprintf("rt_rel_err[users=%d]", cell.users),
			Mean: mean, Lo: lo, Hi: hi,
			Bound: cell.bound, Op: "<=", Pass: mean <= cell.bound,
			N: len(perCell[cell.users]),
		})
	}
	mean, lo, hi := meanCI(littles)
	r.Metrics = append(r.Metrics, HypoMetric{
		Name: "littles_residual", Mean: mean, Lo: lo, Hi: hi,
		Bound: 0.05, Op: "<=", Pass: mean <= 0.05, N: len(littles),
	})
	mean, lo, hi = meanCI(gaps)
	r.Metrics = append(r.Metrics, HypoMetric{
		Name: "util_gap", Mean: mean, Lo: lo, Hi: hi,
		Bound: 0.05, Op: "<=", Pass: mean <= 0.05, N: len(gaps),
	})
	r.Metrics = append(r.Metrics, HypoMetric{
		Name: "drift_flags", Mean: float64(totalDrift),
		Bound: 0, Op: "<=", Pass: totalDrift == 0, N: len(results),
	})

	if shortRuns > 0 {
		r.Verdict = VerdictInconclusive
		r.Detail = fmt.Sprintf("%d/%d runs never reached %d applicable samples", shortRuns, len(results), minApplicableSamples)
		return r
	}
	r.Verdict, r.Detail = verdictFromMetrics(r.Metrics)
	return r
}

func runDriftCalm(cfg HypothesisConfig) HypothesisResult {
	controllers := []string{"ec2", "conscale"}
	const calmUsers = 2000 // ~65% bottleneck utilization: no scaling triggers
	var cfgs []RunConfig
	type cellKey struct {
		controller string
		seed       uint64
	}
	var keys []cellKey
	for _, ctrl := range controllers {
		for s := 0; s < cfg.Seeds; s++ {
			rc := DefaultRunConfig(scaling.EC2, workload.Constant)
			rc.Controller = ctrl
			rc.MaxUsers = calmUsers
			rc.Duration = cfg.Duration
			rc.Seed = cfg.BaseSeed + uint64(s)
			rc.Twin = &twin.Config{}
			cfgs = append(cfgs, rc)
			keys = append(keys, cellKey{ctrl, rc.Seed})
		}
	}
	results := RunMany(cfgs)

	r := HypothesisResult{
		Columns: []string{"controller", "seed", "applicable", "rt_rel_err", "drift_flags"},
	}
	perCtrl := map[string]int{}
	relByCtrl := map[string][]float64{}
	shortRuns := 0
	for i, res := range results {
		st := twinStats(res)
		k := keys[i]
		r.Rows = append(r.Rows, []string{
			k.controller, strconv.FormatUint(k.seed, 10), strconv.Itoa(st.applicable),
			fmtF(st.meanRelErr), strconv.Itoa(st.drifts),
		})
		if st.applicable < minApplicableSamples {
			shortRuns++
			continue
		}
		perCtrl[k.controller] += st.drifts
		relByCtrl[k.controller] = append(relByCtrl[k.controller], st.meanRelErr)
	}
	for _, ctrl := range controllers {
		mean, lo, hi := meanCI(relByCtrl[ctrl])
		r.Metrics = append(r.Metrics, HypoMetric{
			Name: fmt.Sprintf("rt_rel_err[%s]", ctrl),
			Mean: mean, Lo: lo, Hi: hi,
			Bound: 0.12, Op: "<=", Pass: mean <= 0.12, N: len(relByCtrl[ctrl]),
		})
		r.Metrics = append(r.Metrics, HypoMetric{
			Name: fmt.Sprintf("drift_flags[%s]", ctrl),
			Mean: float64(perCtrl[ctrl]), Bound: 0, Op: "<=",
			Pass: perCtrl[ctrl] == 0, N: cfg.Seeds,
		})
	}
	if shortRuns > 0 {
		r.Verdict = VerdictInconclusive
		r.Detail = fmt.Sprintf("%d/%d runs never reached %d applicable samples", shortRuns, len(results), minApplicableSamples)
		return r
	}
	r.Verdict, r.Detail = verdictFromMetrics(r.Metrics)
	return r
}

// blameQualifyRequests is the blame-conservation precondition: a class
// row with fewer sampled requests carries too much scheduling epsilon
// relative to its mean to bound tightly.
const blameQualifyRequests = 5

func runBlameConservation(cfg HypothesisConfig) HypothesisResult {
	// "" runs bare; the armed leg exercises the shed component of the
	// decomposition (TestTracedRunBlameAccountsForResponseTime pins the
	// same bound in-process on a short calm run — this is the declared,
	// multi-seed version under genuine overload and shedding).
	policies := []struct{ label, spec string }{
		{"bare", ""},
		{"queue-cap", "queue-cap:cap=300"},
	}
	var cfgs []RunConfig
	type cellKey struct {
		label string
		seed  uint64
	}
	var keys []cellKey
	for _, p := range policies {
		for s := 0; s < cfg.Seeds; s++ {
			rc := DefaultRunConfig(scaling.EC2, workload.BigSpike)
			rc.MaxUsers = cfg.Users
			rc.Duration = cfg.Duration
			rc.Seed = cfg.BaseSeed + uint64(s)
			rc.Tracing = &trace.Config{SampleRate: 1.0 / 16}
			if p.spec != "" {
				pc, err := admission.Parse(p.spec)
				if err != nil {
					panic(err) // static spec above
				}
				rc.Admission = map[cluster.Tier]admission.Config{
					cluster.Web: pc,
					cluster.App: pc,
				}
			}
			cfgs = append(cfgs, rc)
			keys = append(keys, cellKey{p.label, rc.Seed})
		}
	}
	results := RunMany(cfgs)

	r := HypothesisResult{
		Columns: []string{"policy", "seed", "rows", "qualifying", "min_sum_over_rt", "max_sum_over_rt", "sheds"},
	}
	minsByLabel := map[string][]float64{}
	maxByLabel := map[string][]float64{}
	var armedSheds uint64
	thinRuns := 0
	for i, res := range results {
		k := keys[i]
		rows := res.Tracer.BlameTable()
		qualifying := 0
		minR, maxR := math.Inf(1), math.Inf(-1)
		for _, row := range rows {
			if row.Requests < blameQualifyRequests || row.RT <= 0 {
				continue
			}
			qualifying++
			ratio := row.Sum() / row.RT
			if ratio < minR {
				minR = ratio
			}
			if ratio > maxR {
				maxR = ratio
			}
		}
		r.Rows = append(r.Rows, []string{
			k.label, strconv.FormatUint(k.seed, 10), strconv.Itoa(len(rows)),
			strconv.Itoa(qualifying), fmtF(minR), fmtF(maxR),
			strconv.FormatUint(res.Sheds, 10),
		})
		if qualifying < 10 {
			thinRuns++
			continue
		}
		minsByLabel[k.label] = append(minsByLabel[k.label], minR)
		maxByLabel[k.label] = append(maxByLabel[k.label], maxR)
		if k.label != "bare" {
			armedSheds += res.Sheds
		}
	}

	for _, p := range policies {
		mean, lo, hi := meanCI(minsByLabel[p.label])
		r.Metrics = append(r.Metrics, HypoMetric{
			Name: fmt.Sprintf("min_sum_over_rt[%s]", p.label),
			Mean: mean, Lo: lo, Hi: hi,
			Bound: 0.90, Op: ">=", Pass: mean >= 0.90, N: len(minsByLabel[p.label]),
		})
		mean, lo, hi = meanCI(maxByLabel[p.label])
		r.Metrics = append(r.Metrics, HypoMetric{
			Name: fmt.Sprintf("max_sum_over_rt[%s]", p.label),
			Mean: mean, Lo: lo, Hi: hi,
			Bound: 1.001, Op: "<=", Pass: mean <= 1.001, N: len(maxByLabel[p.label]),
		})
	}

	switch {
	case thinRuns > 0:
		r.Verdict = VerdictInconclusive
		r.Detail = fmt.Sprintf("%d/%d runs produced fewer than 10 qualifying blame rows", thinRuns, len(results))
	case armedSheds == 0:
		r.Verdict = VerdictInconclusive
		r.Detail = "the armed runs never shed — the shed component of the claim was not exercised"
	default:
		r.Verdict, r.Detail = verdictFromMetrics(r.Metrics)
	}
	return r
}

func runSCTDominance(cfg HypothesisConfig) HypothesisResult {
	var cfgs []RunConfig
	type cellKey struct {
		trace string
		mode  scaling.Mode
		seed  uint64
	}
	var keys []cellKey
	for _, tr := range cfg.Traces {
		for _, mode := range []scaling.Mode{scaling.EC2, scaling.ConScale} {
			for s := 0; s < cfg.Seeds; s++ {
				rc := DefaultRunConfig(mode, tr)
				rc.MaxUsers = cfg.Users
				rc.Duration = cfg.SweepDuration
				rc.Seed = cfg.BaseSeed + uint64(s)
				rc.WarmupSkip = 30 * des.Second
				cfgs = append(cfgs, rc)
				keys = append(keys, cellKey{tr, mode, rc.Seed})
			}
		}
	}
	results := RunMany(cfgs)

	p99 := map[cellKey]float64{}
	for i, res := range results {
		p99[keys[i]] = res.P99
	}
	r := HypothesisResult{
		Columns: []string{"trace", "seed", "p99_ec2_ms", "p99_conscale_ms", "diff_ms"},
	}
	wins := 0
	var pooled []float64
	for _, tr := range cfg.Traces {
		var diffs []float64
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.BaseSeed + uint64(s)
			e := p99[cellKey{tr, scaling.EC2, seed}]
			c := p99[cellKey{tr, scaling.ConScale, seed}]
			d := e - c
			diffs = append(diffs, d)
			pooled = append(pooled, d)
			r.Rows = append(r.Rows, []string{
				tr, strconv.FormatUint(seed, 10),
				fmtF(e * 1000), fmtF(c * 1000), fmtF(d * 1000),
			})
		}
		mean, lo, hi := meanCI(diffs)
		pass := mean >= 0
		if pass {
			wins++
		}
		r.Metrics = append(r.Metrics, HypoMetric{
			Name: fmt.Sprintf("p99_ec2-p99_sct[%s] (s)", tr),
			Mean: mean, Lo: lo, Hi: hi,
			Bound: 0, Op: ">=", Pass: pass, N: len(diffs),
		})
	}
	pm, plo, phi := meanCI(pooled)
	r.Metrics = append(r.Metrics, HypoMetric{
		Name: "p99_ec2-p99_sct[pooled] (s)",
		Mean: pm, Lo: plo, Hi: phi,
		Bound: 0, Op: ">=", Pass: pm >= 0, N: len(pooled),
	})
	switch {
	case wins == len(cfg.Traces):
		r.Verdict = VerdictSupported
		r.Detail = fmt.Sprintf("ConScale p99 ≤ EC2 p99 on %d/%d traces (pooled Δ %.0f ms)", wins, len(cfg.Traces), pm*1000)
	case float64(wins) >= 0.8*float64(len(cfg.Traces)) && pm > 0:
		r.Verdict = VerdictSupported
		r.Detail = fmt.Sprintf("ConScale wins %d/%d traces, pooled Δ %.0f ms > 0 (majority rule)", wins, len(cfg.Traces), pm*1000)
	default:
		r.Verdict = VerdictRefuted
		r.Detail = fmt.Sprintf("ConScale wins only %d/%d traces (pooled Δ %.0f ms)", wins, len(cfg.Traces), pm*1000)
	}
	return r
}

// verdictFromMetrics folds metric passes into a verdict + detail line.
func verdictFromMetrics(ms []HypoMetric) (string, string) {
	var failed []string
	for _, m := range ms {
		if !m.Pass {
			failed = append(failed, fmt.Sprintf("%s = %.4f (want %s %.4f)", m.Name, m.Mean, m.Op, m.Bound))
		}
	}
	if len(failed) == 0 {
		return VerdictSupported, "all bounds held"
	}
	sort.Strings(failed)
	return VerdictRefuted, fmt.Sprintf("%d bound(s) failed: %s", len(failed), failed[0])
}

// tCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (clamped to the z limit for large df).
func tCrit95(df int) float64 {
	table := []float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086}
	if df <= 0 {
		return math.NaN()
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.96
}

// meanCI returns the sample mean and its two-sided 95% confidence
// interval (Student t on the sample standard deviation). With a single
// sample the interval collapses to the point; with none, NaNs.
func meanCI(vals []float64) (mean, lo, hi float64) {
	n := len(vals)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n)
	if n == 1 {
		return mean, mean, mean
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	half := tCrit95(n-1) * sd / math.Sqrt(float64(n))
	return mean, mean - half, mean + half
}

func fmtF(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// RenderHypotheses writes the per-hypothesis FINDINGS-style table: the
// declaration, the verdict, and each checked metric with its CI and
// bound.
func RenderHypotheses(w io.Writer, results []HypothesisResult) error {
	for _, r := range results {
		gate := ""
		if r.Gated {
			gate = "  [CI-gated]"
		}
		if _, err := fmt.Fprintf(w, "== hypothesis %s%s\n   claim:  %s\n   regime: %s\n   verdict: %s — %s\n",
			r.ID, gate, r.Claim, r.Regime, r.Verdict, r.Detail); err != nil {
			return err
		}
		for _, m := range r.Metrics {
			mark := "ok "
			if !m.Pass {
				mark = "FAIL"
			}
			if _, err := fmt.Fprintf(w, "   %s  %-34s %10.4f  CI95 [%8.4f, %8.4f]  want %s %g  (n=%d)\n",
				mark, m.Name, m.Mean, m.Lo, m.Hi, m.Op, m.Bound, m.N); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteHypothesisCSV writes one hypothesis's per-cell rows.
func WriteHypothesisCSV(w io.Writer, r *HypothesisResult) error {
	if err := writeCSVRow(w, r.Columns); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := writeCSVRow(w, row); err != nil {
			return err
		}
	}
	return nil
}

// WriteHypothesisSummaryCSV writes the one-row-per-metric summary
// across all hypotheses.
func WriteHypothesisSummaryCSV(w io.Writer, results []HypothesisResult) error {
	if err := writeCSVRow(w, []string{"hypothesis", "gated", "verdict", "metric", "mean", "ci_lo", "ci_hi", "op", "bound", "pass", "n"}); err != nil {
		return err
	}
	for _, r := range results {
		for _, m := range r.Metrics {
			row := []string{
				r.ID, strconv.FormatBool(r.Gated), r.Verdict, m.Name,
				fmtF(m.Mean), fmtF(m.Lo), fmtF(m.Hi), m.Op, fmtF(m.Bound),
				strconv.FormatBool(m.Pass), strconv.Itoa(m.N),
			}
			if err := writeCSVRow(w, row); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSVRow(w io.Writer, fields []string) error {
	for i, f := range fields {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, f); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}
