package experiment

import (
	"math"
	"sort"

	"conscale/internal/des"
	"conscale/internal/forensics"
	"conscale/internal/stats"
	"conscale/internal/telemetry"
	"conscale/internal/twin"
)

// clientProbe is Run's one workload.Tap. It keeps what the result needs
// from the client request stream — the ledger, the successful response
// times past the warm-up, and on telemetry runs the per-second SLO ground
// truth — and fans the stream out to every layer that watches it: the
// client-RT histogram and the SLO monitor, the forensics detector, the
// twin, in that order, the order their audit events are pinned in. Every
// consumer is nil-safe and checks its own live switch, so the probe calls
// them all unconditionally and a layer mgmt disables mid-run simply stops
// counting; the probe's own records depend on none of them. A new
// client-stream observer is one more field and one more line here; it
// never wraps the Submitter.
//
// Run sets no Abandon limit, so the raw outcome the tap sees is the one
// the generator's timeline counts.
type clientProbe struct {
	clientRT *telemetry.Histogram
	slo      *telemetry.SLOMonitor
	det      *forensics.Detector
	tw       *twin.Observer

	ledger ClientLedger
	// rts holds the successful response times finishing at or after
	// warm, in completion order.
	warm des.Time
	rts  []float64
	// truth is the per-second SLO ground truth against sloTarget, kept
	// while the SLO monitor is armed (it is what the monitor is scored
	// against, so it never reads the monitor's own counts).
	sloTarget float64
	truth     []SLOSecond
}

func (p *clientProbe) OnArrival(des.Time) {
	p.ledger.Issued++
	p.tw.ObserveArrival()
}

func (p *clientProbe) OnComplete(start, now des.Time, ok bool) {
	rt := float64(now - start)
	if ok {
		p.ledger.OK++
		if now >= p.warm {
			p.rts = append(p.rts, rt)
		}
		p.clientRT.Observe(rt)
	} else {
		p.ledger.Failed++
	}
	if p.slo != nil {
		p.truth = observeTruth(p.truth, now, !ok || rt > p.sloTarget)
	}
	p.slo.Observe(now, rt, ok)
	p.det.Observe(now, rt, ok)
	p.tw.Observe(now, rt, ok)
}

// finish hands the client statistics, the ledger and the ground truth to
// res and lets go of the response times: the generator, and through its
// tap the probe, stay reachable for as long as the run's engine does.
func (p *clientProbe) finish(res *RunResult) {
	p.ledger.InFlight = p.ledger.Issued - p.ledger.OK - p.ledger.Failed
	res.Client = p.ledger
	res.Goodput = int(p.ledger.OK)
	if n := p.ledger.OK + p.ledger.Failed; n > 0 {
		res.ErrorRate = float64(p.ledger.Failed) / float64(n)
	}
	// The mean sums in completion order, before the sort: a float sum
	// depends on the order of its terms.
	res.MeanRT = math.NaN()
	if len(p.rts) > 0 {
		sum := 0.0
		for _, rt := range p.rts {
			sum += rt
		}
		res.MeanRT = sum / float64(len(p.rts))
	}
	sort.Float64s(p.rts)
	res.P50 = stats.PercentileSorted(p.rts, 50)
	res.P95 = stats.PercentileSorted(p.rts, 95)
	res.P99 = stats.PercentileSorted(p.rts, 99)
	res.SLOTruth = p.truth
	p.rts, p.truth = nil, nil
}

// frontDoorProbe is RunScale's workload.Tap: the front-door registry's
// arrival counter, in-flight gauge and client-RT histogram over the
// streaming population.
type frontDoorProbe struct {
	arrivals *telemetry.Counter
	inflight *telemetry.Gauge
	clientRT *telemetry.Histogram
}

func (p *frontDoorProbe) OnArrival(des.Time) {
	p.arrivals.Inc()
	p.inflight.Add(1)
}

func (p *frontDoorProbe) OnComplete(start, now des.Time, ok bool) {
	p.inflight.Add(-1)
	if ok {
		p.clientRT.Observe(float64(now - start))
	}
}
