// Package rubbos models the RUBBoS benchmark application (a Slashdot-like
// bulletin board, paper Section II-A): 24 servlet interactions, two workload
// mixes (browse-only CPU-intensive and read/write I/O-intensive), and the
// dataset-size effects on per-request service demand that drive the paper's
// system-state experiments (Fig. 3c, Fig. 7b/e, Fig. 11).
//
// Demands are calibrated so that the emergent optimal concurrency of the
// simulated tiers lands where the paper measures it: roughly 10 threads per
// core for MySQL and Tomcat under browse-only load, dropping to ~5 for the
// disk-bound read/write mix, shifting down when the dataset grows and up
// when it shrinks.
package rubbos

import (
	"fmt"

	"conscale/internal/rng"
)

// Mix selects the workload mode.
type Mix int

// The two RUBBoS workload modes.
const (
	// BrowseOnly is the read-only, CPU-intensive mode.
	BrowseOnly Mix = iota
	// ReadWrite is the read/write, disk-I/O-intensive mode.
	ReadWrite
)

// String implements fmt.Stringer.
func (m Mix) String() string {
	switch m {
	case BrowseOnly:
		return "browse-only"
	case ReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("Mix(%d)", int(m))
	}
}

// Servlet is one of the 24 RUBBoS interactions with its per-tier demands.
// All durations are seconds of service demand per visit.
type Servlet struct {
	Name   string
	Write  bool
	Weight float64 // selection probability weight within the mix

	WebCPU  float64 // web-tier CPU per request
	AppCPU  float64 // app-tier CPU per request (split across query gaps)
	AppWait float64 // app-tier non-CPU dwell (marshalling, network)

	Queries   int     // synchronous DB round trips per request
	QueryCPU  float64 // DB CPU per query
	QueryWait float64 // DB non-CPU dwell per query (protocol, row fetch)
	QueryDisk float64 // DB disk demand per query (writes, large scans)
}

// Calibration targets for the mix-level weighted means; the relative
// variety between servlets is preserved while the means are pinned so the
// emergent tier behaviour matches the paper's measurements.
const (
	targetWebCPU    = 0.00015 // 150 us (Apache serves as a thin proxy)
	targetAppCPU    = 0.00095 // 950 us  -> Tomcat TPmax ~1050/s/core
	targetAppWait   = 0.0025  // 2.5 ms
	targetQueryCPU  = 0.00022 // 220 us  -> MySQL TPmax ~4500 q/s/core
	targetQueryWait = 0.00158 // 1.58 ms -> MySQL knee ~10/core measured
	// Mean disk demand per query across the read/write mix; concentrated
	// on write servlets it yields a disk-bound knee of ~5.
	targetQueryDiskRW = 0.0009
)

// Dataset-scale exponents: how demand components grow with dataset size
// (scale 1 = the original RUBBoS dataset). The app tier's business logic
// is most sensitive (the paper's Section III-C.2 observation), the DB CPU
// least (indexed access).
const (
	expAppCPU    = 0.60
	expQueryCPU  = 0.15
	expQueryWait = 0.30
	expQueryDisk = 0.40
)

// Workload is a calibrated servlet mix ready for sampling.
type Workload struct {
	MixMode      Mix
	DatasetScale float64
	Servlets     []Servlet
	weights      []float64
}

// relative per-servlet shape: multipliers around the mix means, plus query
// counts. Weights are (browse, readwrite); zero removes the servlet from
// that mix. The 24 interactions follow the RUBBoS servlet set.
type shape struct {
	name         string
	write        bool
	wBrowse, wRW float64
	appCPU       float64
	appWait      float64
	queries      int
	queryCPU     float64
	queryWait    float64
	queryDiskRel float64 // relative disk demand (read/write mix only)
}

var servletShapes = []shape{
	{name: "StoriesOfTheDay", wBrowse: 12, wRW: 10, appCPU: 1.0, appWait: 1.0, queries: 2, queryCPU: 1.1, queryWait: 1.0},
	{name: "ViewStory", wBrowse: 16, wRW: 12, appCPU: 1.1, appWait: 1.0, queries: 2, queryCPU: 1.0, queryWait: 1.0},
	{name: "ViewComment", wBrowse: 10, wRW: 8, appCPU: 0.9, appWait: 0.9, queries: 2, queryCPU: 0.9, queryWait: 1.0},
	{name: "BrowseCategories", wBrowse: 6, wRW: 5, appCPU: 0.6, appWait: 0.8, queries: 1, queryCPU: 0.7, queryWait: 0.9},
	{name: "BrowseStoriesByCategory", wBrowse: 9, wRW: 7, appCPU: 1.0, appWait: 1.1, queries: 2, queryCPU: 1.2, queryWait: 1.1},
	{name: "OlderStories", wBrowse: 6, wRW: 5, appCPU: 0.9, appWait: 1.0, queries: 2, queryCPU: 1.1, queryWait: 1.1},
	{name: "Search", wBrowse: 5, wRW: 4, appCPU: 1.3, appWait: 1.1, queries: 3, queryCPU: 1.4, queryWait: 1.2},
	{name: "SearchInStories", wBrowse: 4, wRW: 3, appCPU: 1.3, appWait: 1.1, queries: 3, queryCPU: 1.5, queryWait: 1.2},
	{name: "SearchInComments", wBrowse: 3, wRW: 2, appCPU: 1.3, appWait: 1.1, queries: 3, queryCPU: 1.6, queryWait: 1.3},
	{name: "SearchInUsers", wBrowse: 2, wRW: 2, appCPU: 1.1, appWait: 1.0, queries: 2, queryCPU: 1.2, queryWait: 1.1},
	{name: "AboutMe", wBrowse: 3, wRW: 3, appCPU: 1.2, appWait: 1.1, queries: 3, queryCPU: 1.1, queryWait: 1.0},
	{name: "ViewUserInfo", wBrowse: 4, wRW: 3, appCPU: 0.8, appWait: 0.9, queries: 1, queryCPU: 0.8, queryWait: 0.9},
	{name: "BrowseRegions", wBrowse: 3, wRW: 2, appCPU: 0.6, appWait: 0.8, queries: 1, queryCPU: 0.7, queryWait: 0.9},
	{name: "StoryOfTheWeek", wBrowse: 4, wRW: 3, appCPU: 1.0, appWait: 1.0, queries: 2, queryCPU: 1.1, queryWait: 1.0},
	{name: "CommentsOfTheDay", wBrowse: 3, wRW: 2, appCPU: 1.0, appWait: 1.0, queries: 2, queryCPU: 1.0, queryWait: 1.0},
	{name: "RegisterUser", write: true, wRW: 2, appCPU: 1.0, appWait: 1.0, queries: 2, queryCPU: 0.9, queryWait: 1.0, queryDiskRel: 0.8},
	{name: "SubmitStory", write: true, wRW: 4, appCPU: 1.2, appWait: 1.1, queries: 2, queryCPU: 1.0, queryWait: 1.0, queryDiskRel: 1.0},
	{name: "StoreStory", write: true, wRW: 8, appCPU: 1.1, appWait: 1.0, queries: 3, queryCPU: 1.0, queryWait: 1.1, queryDiskRel: 1.3},
	{name: "PostComment", write: true, wRW: 5, appCPU: 1.0, appWait: 1.0, queries: 2, queryCPU: 0.9, queryWait: 1.0, queryDiskRel: 1.0},
	{name: "StoreComment", write: true, wRW: 7, appCPU: 1.0, appWait: 1.0, queries: 3, queryCPU: 1.0, queryWait: 1.0, queryDiskRel: 1.2},
	{name: "ReviewStories", wBrowse: 3, wRW: 3, appCPU: 1.1, appWait: 1.0, queries: 2, queryCPU: 1.1, queryWait: 1.0},
	{name: "AcceptStory", write: true, wRW: 2, appCPU: 1.0, appWait: 1.0, queries: 2, queryCPU: 0.9, queryWait: 1.0, queryDiskRel: 1.1},
	{name: "RejectStory", write: true, wRW: 1, appCPU: 0.9, appWait: 0.9, queries: 1, queryCPU: 0.8, queryWait: 0.9, queryDiskRel: 0.9},
	{name: "ModerateComment", write: true, wRW: 2, appCPU: 1.0, appWait: 1.0, queries: 2, queryCPU: 1.0, queryWait: 1.0, queryDiskRel: 1.0},
}

// NewWorkload builds the calibrated servlet mix for the given mode and
// dataset scale (1 = original dataset; 2 = the paper's "manually enlarged"
// dataset; <1 = the reduced dataset of the DCM experiment). It panics on a
// non-positive scale.
func NewWorkload(mix Mix, datasetScale float64) *Workload {
	if datasetScale <= 0 {
		panic("rubbos: non-positive dataset scale")
	}
	var servlets []Servlet
	for _, sh := range servletShapes {
		w := sh.wBrowse
		if mix == ReadWrite {
			w = sh.wRW
		}
		if w <= 0 {
			continue
		}
		servlets = append(servlets, Servlet{
			Name:      sh.name,
			Write:     sh.write,
			Weight:    w,
			WebCPU:    targetWebCPU,
			AppCPU:    sh.appCPU,
			AppWait:   sh.appWait,
			Queries:   sh.queries,
			QueryCPU:  sh.queryCPU,
			QueryWait: sh.queryWait,
			QueryDisk: sh.queryDiskRel,
		})
	}

	calibrate(servlets, mix)
	applyDatasetScale(servlets, datasetScale)

	weights := make([]float64, len(servlets))
	for i, s := range servlets {
		weights[i] = s.Weight
	}
	return &Workload{MixMode: mix, DatasetScale: datasetScale, Servlets: servlets, weights: weights}
}

// calibrate rescales each demand field so its weighted mix mean equals the
// target, preserving per-servlet relative variety. Query-level fields are
// weighted by weight*queries because that is how often a query executes.
func calibrate(servlets []Servlet, mix Mix) {
	var wSum, qSum float64
	var appCPU, appWait, qCPU, qWait, qDisk float64
	for _, s := range servlets {
		wSum += s.Weight
		qw := s.Weight * float64(s.Queries)
		qSum += qw
		appCPU += s.Weight * s.AppCPU
		appWait += s.Weight * s.AppWait
		qCPU += qw * s.QueryCPU
		qWait += qw * s.QueryWait
		qDisk += qw * s.QueryDisk
	}
	appCPUScale := targetAppCPU / (appCPU / wSum)
	appWaitScale := targetAppWait / (appWait / wSum)
	qCPUScale := targetQueryCPU / (qCPU / qSum)
	qWaitScale := targetQueryWait / (qWait / qSum)
	qDiskScale := 0.0
	if mix == ReadWrite && qDisk > 0 {
		qDiskScale = targetQueryDiskRW / (qDisk / qSum)
	}
	for i := range servlets {
		servlets[i].AppCPU *= appCPUScale
		servlets[i].AppWait *= appWaitScale
		servlets[i].QueryCPU *= qCPUScale
		servlets[i].QueryWait *= qWaitScale
		servlets[i].QueryDisk *= qDiskScale
	}
}

func applyDatasetScale(servlets []Servlet, scale float64) {
	if scale == 1 {
		return
	}
	for i := range servlets {
		servlets[i].AppCPU *= mathPow(scale, expAppCPU)
		servlets[i].QueryCPU *= mathPow(scale, expQueryCPU)
		servlets[i].QueryWait *= mathPow(scale, expQueryWait)
		servlets[i].QueryDisk *= mathPow(scale, expQueryDisk)
	}
}

// Pick samples a servlet according to the mix weights.
func (w *Workload) Pick(rnd *rng.Source) *Servlet {
	return &w.Servlets[w.PickIndex(rnd)]
}

// PickIndex is Pick returning the servlet's position in Servlets, for
// callers that keep per-servlet tables beside the workload.
func (w *Workload) PickIndex(rnd *rng.Source) int { return rnd.Pick(w.weights) }

// MeanDemand summarises the mix-level expected demands; tests use it to
// verify calibration and analytic predictions of optimal concurrency.
type MeanDemand struct {
	WebCPU    float64
	AppCPU    float64
	AppWait   float64
	Queries   float64
	QueryCPU  float64
	QueryWait float64
	QueryDisk float64
}

// Means returns the weighted expected demands of the mix.
func (w *Workload) Means() MeanDemand {
	var m MeanDemand
	var wSum, qSum float64
	for _, s := range w.Servlets {
		wSum += s.Weight
		qw := s.Weight * float64(s.Queries)
		qSum += qw
		m.WebCPU += s.Weight * s.WebCPU
		m.AppCPU += s.Weight * s.AppCPU
		m.AppWait += s.Weight * s.AppWait
		m.Queries += s.Weight * float64(s.Queries)
		m.QueryCPU += qw * s.QueryCPU
		m.QueryWait += qw * s.QueryWait
		m.QueryDisk += qw * s.QueryDisk
	}
	m.WebCPU /= wSum
	m.AppCPU /= wSum
	m.AppWait /= wSum
	m.Queries /= wSum
	m.QueryCPU /= qSum
	m.QueryWait /= qSum
	m.QueryDisk /= qSum
	return m
}

// PredictedDBOptimal returns the analytic optimal DB concurrency per core
// (CPU-bound) or per disk channel (disk-bound): the number of threads
// needed to keep the bottleneck resource saturated given the per-query
// demand composition (Utilization Law applied to the visit profile).
func (w *Workload) PredictedDBOptimal() float64 {
	m := w.Means()
	total := m.QueryCPU + m.QueryWait + m.QueryDisk
	if m.QueryDisk > m.QueryCPU {
		return total / m.QueryDisk
	}
	return total / m.QueryCPU
}

// PredictedAppOptimal returns the analytic optimal app-tier concurrency per
// core given the downstream DB response time dbRT (seconds per query,
// unloaded).
func (w *Workload) PredictedAppOptimal(dbRT float64) float64 {
	m := w.Means()
	total := m.AppCPU + m.AppWait + m.Queries*dbRT
	return total / m.AppCPU
}
