package experiment

import (
	"conscale/internal/des"
	"conscale/internal/forensics"
	"conscale/internal/telemetry"
	"conscale/internal/twin"
)

// clientProbe is Run's one workload.Tap: it fans the client request
// stream out to every layer that watches it — the client-RT histogram and
// the SLO monitor, the forensics detector, the twin — in that order, the
// order their audit events are pinned in. Every consumer is nil-safe and
// checks its own live switch, so the probe calls them all unconditionally
// and a layer mgmt disables mid-run simply stops counting. A new
// client-stream observer is one more field and one more line here; it
// never wraps the Submitter.
type clientProbe struct {
	clientRT *telemetry.Histogram
	slo      *telemetry.SLOMonitor
	det      *forensics.Detector
	tw       *twin.Observer
}

func (p *clientProbe) OnArrival(des.Time) { p.tw.ObserveArrival() }

func (p *clientProbe) OnComplete(start, now des.Time, ok bool) {
	rt := float64(now - start)
	if ok {
		p.clientRT.Observe(rt)
	}
	p.slo.Observe(now, rt, ok)
	p.det.Observe(now, rt, ok)
	p.tw.Observe(now, rt, ok)
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
