package scaling

import (
	"fmt"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/metrics"
	"conscale/internal/sct"
	"conscale/internal/trace"
)

// Signal is the composable SCT concurrency-range estimator — the
// paper's Optimal Concurrency Estimator: the Scatter-Concurrency-
// Throughput model over the metric warehouse, refreshed asynchronously
// and exposed as a per-tier recommendation any controller can consume.
// Hardware-only policies may ignore it; ConScale and the hybrid policies
// feed it into pool sizing without reimplementing the estimator.
type Signal struct {
	base   Config
	est    *sct.Estimator
	c      *cluster.Cluster
	w      *metrics.Warehouse
	audit  *trace.Audit
	cached map[string]timedEstimate
	// refreshCause is the audit cause of a refresh record. Audit text is
	// data (committed trails are compared byte for byte), so ConScale
	// keeps the wording it has always had.
	refreshCause string

	lastEscape map[cluster.Tier]des.Time
}

// timedEstimate stamps an SCT estimate with its creation time so stale
// views of a past regime are not re-applied after the data that produced
// them has aged out of the collection window.
type timedEstimate struct {
	est sct.Estimate
	at  des.Time
}

// newSignal builds the signal over a cluster and its warehouse.
func newSignal(c *cluster.Cluster, w *metrics.Warehouse, base Config) *Signal {
	return &Signal{
		base:         base,
		est:          sct.New(base.SCT),
		c:            c,
		w:            w,
		cached:       make(map[string]timedEstimate),
		refreshCause: "signal refresh",
		lastEscape:   make(map[cluster.Tier]des.Time),
	}
}

// refresh re-runs the SCT model over each non-draining app/DB server's
// recent window — the asynchronous Optimal Concurrency Estimator
// workflow of the paper's Fig. 8.
func (s *Signal) refresh() {
	now := s.c.Eng.Now()
	since := now - s.est.Config().CollectionWindow
	for _, tier := range []cluster.Tier{cluster.App, cluster.DB} {
		for _, srv := range s.c.Servers(tier) {
			if srv.Draining() {
				continue
			}
			est, ok := s.est.Estimate(s.w.FineSince(srv.Name(), since))
			if !ok {
				continue
			}
			s.cached[srv.Name()] = timedEstimate{est: est, at: now}
			s.audit.Record(trace.AuditEvent{Time: now, Kind: trace.AuditSCTEstimate, Tier: tier.String(),
				Cause: s.refreshCause, Detail: srv.Name(),
				Qlower: est.Qlower, Qupper: est.Qupper, Value: est.PlateauTP})
		}
	}
}

// Estimates returns the current per-server view.
func (s *Signal) Estimates() map[string]sct.Estimate {
	out := make(map[string]sct.Estimate, len(s.cached))
	for k, v := range s.cached {
		out[k] = v.est
	}
	return out
}

// Tier aggregates the cached per-server estimates of a tier: the mean
// optimal concurrency of the fresh estimates (rounded; the upper end of
// the rational range under Config.UseQupper), with Saturated set when a
// majority witnessed the curve's descending stage.
func (s *Signal) Tier(tier cluster.Tier) TierEstimate {
	now := s.c.Eng.Now()
	maxAge := s.est.Config().CollectionWindow
	sum, n, sat := 0, 0, 0
	for _, srv := range s.c.Servers(tier) {
		if srv.Draining() {
			continue
		}
		te, found := s.cached[srv.Name()]
		if !found || now-te.at > maxAge {
			continue // stale: describes a regime the window no longer covers
		}
		v := te.est.Optimal()
		if s.base.UseQupper && te.est.Qupper > v {
			v = te.est.Qupper
		}
		sum += v
		n++
		if te.est.Saturated {
			sat++
		}
	}
	if n == 0 {
		return TierEstimate{}
	}
	return TierEstimate{Optimal: (sum + n/2) / n, Saturated: sat*2 > n, OK: true}
}

// poolWriter applies the Signal's pool decisions. The decisions exist
// once; the wording of the log and audit records they leave is the
// policy family's (committed decision logs are compared byte for byte).
type poolWriter interface {
	// sized applies an SCT-derived setting n to the tier's pool.
	sized(tier cluster.Tier, n, optimal int, saturated bool)
	// widened applies an under-allocation escape from → to.
	widened(tier cluster.Tier, from, to int, cause string)
}

// actuatorWriter words pool decisions the way the Actuator does.
type actuatorWriter struct{ act Actuator }

func (w actuatorWriter) sized(tier cluster.Tier, n, optimal int, saturated bool) {
	if tier == cluster.App {
		w.act.SetAppThreads(n, fmt.Sprintf("sct signal: app optimal=%d saturated=%v", optimal, saturated))
	} else {
		w.act.SetDBConns(n, fmt.Sprintf("sct signal: db optimal=%d/server saturated=%v", optimal, saturated))
	}
}

func (w actuatorWriter) widened(tier cluster.Tier, _, to int, cause string) {
	if tier == cluster.App {
		w.act.SetAppThreads(to, cause)
	} else {
		w.act.SetDBConns(to, cause)
	}
}

// ApplyPools turns the tier-aggregated signal into soft-resource
// actuation, ConScale's policy at a per-tick cadence: size the pools
// from the observation's SCT estimates, then apply the under-allocation
// escape.
func (s *Signal) ApplyPools(act Actuator, obs *Observation) {
	if s == nil {
		return // signal-less environments (unit tests, custom harnesses)
	}
	w := actuatorWriter{act}
	s.size(obs, w)
	s.widen(obs, w)
}

// escapeHold is how long tightening is held off after an escape: the
// estimates under-represent the tier's true optimum (the pool was
// pinning concurrency) until fresh post-escape data arrives.
const escapeHold = 30 * des.Second

// size turns the observation's SCT estimates into soft-resource
// settings: the app tier gets the estimated per-server optimal thread
// pool; the DB tier's total optimal concurrency (per-server optimum ×
// ready servers) is split across the app servers' connection pools. Only
// saturated estimates (descending stage witnessed) may tighten an
// allocation — an ascending-only curve proves nothing about the optimum
// being lower than the current setting.
func (s *Signal) size(obs *Observation, w poolWriter) {
	recentEscape := func(tier cluster.Tier) bool {
		return s.lastEscape[tier] > 0 && obs.Now-s.lastEscape[tier] < escapeHold
	}
	if e := obs.AppSCT; e.OK {
		threads := clamp(e.Optimal, s.base.MinThreads, s.base.MaxThreads)
		if threads >= obs.Threads || (e.Saturated && !recentEscape(cluster.App)) {
			w.sized(cluster.App, threads, e.Optimal, e.Saturated)
		}
	}
	if e := obs.DBSCT; e.OK && obs.App.Ready > 0 && obs.DB.Ready > 0 {
		perApp := clamp(ceilDiv(e.Optimal*obs.DB.Ready, obs.App.Ready), s.base.MinConns, s.base.MaxConns)
		if perApp >= obs.Conns || (e.Saturated && !recentEscape(cluster.DB)) {
			w.sized(cluster.DB, perApp, e.Optimal, e.Saturated)
		}
	}
}

// widen detects the under-allocation effect ([12] in the paper):
// requests queue at a tier while its critical hardware resource idles
// below the scale-out threshold, which means the current soft resource —
// not hardware — is the binding constraint and the SCT curve cannot
// reveal a higher optimum because concurrency is pinned. It widens the
// allocation multiplicatively until the curve's descending stage becomes
// observable again.
func (s *Signal) widen(obs *Observation, w poolWriter) {
	_, threads, conns := s.c.SoftResources()
	// App tier: accept queues grow while NO app server's CPU is near the
	// threshold — if any server is hardware-saturated the queues are the
	// hardware's fault and hardware scaling (not wider pools) is the fix.
	if obs.App.MaxCPU < s.base.High && obs.App.Queue > 2*threads {
		if grown := clamp(threads*3/2, s.base.MinThreads, s.base.MaxThreads); grown > threads {
			s.lastEscape[cluster.App] = obs.Now
			w.widened(cluster.App, threads, grown,
				fmt.Sprintf("under-allocation escape: %d queued while max cpu=%.2f", obs.App.Queue, obs.App.MaxCPU))
		}
	}
	// DB connections: app threads pile up waiting for the pool while the
	// DB tier's critical resources (CPU and disk) idle.
	dbBusy := obs.DB.MaxCPU
	if obs.DB.Disk > dbBusy {
		dbBusy = obs.DB.Disk
	}
	if dbBusy < s.base.High && obs.DB.PoolWaiting > 2*conns {
		if grown := clamp(conns*3/2, s.base.MinConns, s.base.MaxConns); grown > conns {
			s.lastEscape[cluster.DB] = obs.Now
			w.widened(cluster.DB, conns, grown,
				fmt.Sprintf("under-allocation escape: %d waiting while max db busy=%.2f", obs.DB.PoolWaiting, dbBusy))
		}
	}
}
