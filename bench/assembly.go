package main

import (
	"bytes"
	"sort"

	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/experiment"
	"conscale/internal/forensics"
	"conscale/internal/rng"
	"conscale/internal/scaling"
	"conscale/internal/telemetry"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// tracedRun is what the bench-owned assembly reports: the same outcome
// as the product's entry point, plus the numbers only an owner of the
// engine can read.
type tracedRun struct {
	outcome
	// InFlight is the cluster's own count of requests inside the web
	// tier when the run stopped — the independent side of the
	// conservation check.
	InFlight int64
	// PendingP50 is the median DES heap depth over the one-second slices.
	PendingP50 float64
}

// forensicsTiers pairs cluster tiers with their trace tier ids, as
// experiment.Run's snapshot tick does.
var forensicsTiers = [...]struct {
	ct cluster.Tier
	id trace.TierID
}{
	{cluster.Web, trace.TierWeb},
	{cluster.App, trace.TierApp},
	{cluster.Cache, trace.TierCache},
	{cluster.DB, trace.TierDB},
}

// runTracedPaperCell is the bench's own assembly of the paper cell: the
// same construction order, seeds and wiring as experiment.Run for a
// RunConfig that sets only Mode, TraceName, MaxUsers, Duration, Seed,
// ThinkTime and the four observers — built from the layers' public
// functions alone, with a host-time span around every call that crosses
// a layer boundary. It is the same program (its timeline hashes equal to
// experiment.Run's, which the caller checks), so the spans attribute the
// product's time without a line of the product changing.
func runTracedPaperCell(cfg experiment.RunConfig, rec *recorder) tracedRun {
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = cfg.Seed
	c := cluster.New(ccfg)

	fcfg := scaling.DefaultConfig(cfg.Mode)
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

	f := scaling.New(c, fcfg)
	f.SetAudit(tracer.Audit())

	// The innermost wrapper is the ledger and the cluster.submit span:
	// it numbers the request, and its completion callback publishes that
	// number as cur so the observer spans further out share the id.
	var issued, ok, failed int64
	var seq, cur uint64
	submit := workload.Submitter(func(done func(ok bool)) {
		seq++
		id := seq
		issued++
		rec.open(spanClusterSubmit, id)
		c.Submit(func(good bool) {
			if good {
				ok++
			} else {
				failed++
			}
			prev := cur
			cur = id
			done(good)
			cur = prev
		})
		rec.close()
	})

	var (
		reg *telemetry.Registry
		scr *telemetry.Scraper
		slo *telemetry.SLOMonitor
	)
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
		clientRT := reg.Histogram("conscale_client_rt_seconds",
			"Client-observed end-to-end response time of successful requests.")
		inner := submit
		submit = func(done func(ok bool)) {
			start := c.Eng.Now()
			inner(func(good bool) {
				now := c.Eng.Now()
				rt := float64(now - start)
				rec.open(spanTelemetryObserve, cur)
				if good {
					clientRT.Observe(rt)
				}
				slo.Observe(now, rt, good)
				rec.close()
				done(good)
			})
		}
		scr = telemetry.NewScraper(c.Eng, reg, cfg.Telemetry.ScrapeInterval)
		scr.Start()
	}

	var fx *forensics.Forensics
	if cfg.Forensics != nil {
		fx = forensics.New(*cfg.Forensics)
		fx.Det.Register(reg)
		if tracer != nil {
			tracer.Audit().SetObserver(fx.Rec.ObserveAudit)
			// EndRequest fires before the completion callback, so the
			// request's number is not published yet: these spans carry id 0.
			tracer.SetOnEnd(func(root *trace.Span) {
				rec.open(spanTraceOnEnd, 0)
				fx.Rec.ObserveSpan(root)
				rec.close()
			})
		}
		inner := submit
		submit = func(done func(ok bool)) {
			start := c.Eng.Now()
			inner(func(good bool) {
				now := c.Eng.Now()
				rec.open(spanForensicsObserve, cur)
				fx.Det.Observe(now, float64(now-start), good)
				rec.close()
				done(good)
			})
		}
	}

	think := cfg.ThinkTime
	if think == 0 {
		think = 7
	}

	var tw *twin.Observer
	if cfg.Twin != nil {
		tw = twin.New(*cfg.Twin, twin.Model{
			Workload:  c.Workload,
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
		inner := submit
		submit = func(done func(ok bool)) {
			rec.open(spanTwinObserve, 0)
			tw.ObserveArrival()
			rec.close()
			start := c.Eng.Now()
			inner(func(good bool) {
				now := c.Eng.Now()
				rec.open(spanTwinObserve, cur)
				tw.Observe(now, float64(now-start), good)
				rec.close()
				done(good)
			})
		}
	}

	// Outermost: the generator's own completion handler (sample append,
	// think-time draw, reschedule).
	observed := submit
	submit = func(done func(ok bool)) {
		observed(func(good bool) {
			rec.open(spanWorkloadComplete, cur)
			done(good)
			rec.close()
		})
	}

	f.Start()

	tr := workload.NewTrace(cfg.TraceName, cfg.MaxUsers, cfg.Duration)
	gen := workload.NewGenerator(c.Eng, rng.New(cfg.Seed^0x9e3779b9), workload.GeneratorConfig{
		Trace:     tr,
		ThinkTime: think,
	}, submit)

	res := &experiment.RunResult{
		Mode:    cfg.Mode,
		Trace:   cfg.TraceName,
		TierCPU: map[cluster.Tier][]float64{cluster.App: nil, cluster.DB: nil},
	}
	sampler := c.Eng.Every(des.Second, func() {
		rec.open(spanSampler, 0)
		res.VMs = append(res.VMs, c.TotalVMs())
		res.TierCPU[cluster.App] = append(res.TierCPU[cluster.App], c.TierCPU(cluster.App))
		res.TierCPU[cluster.DB] = append(res.TierCPU[cluster.DB], c.TierCPU(cluster.DB))
		_, app, db := c.SoftResources()
		res.SoftHistory = append(res.SoftHistory, [2]int{app, db})
		rec.close()
	})

	var ftick *des.Ticker
	if fx != nil {
		ftick = c.Eng.Every(fx.Config().SnapshotInterval, func() {
			rec.open(spanForensicsTick, 0)
			now := c.Eng.Now()
			s := forensics.TierSnapshot{Time: now, Clients: gen.Active()}
			for _, m := range forensicsTiers {
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
			rec.close()
		})
	}

	var ttick *des.Ticker
	if tw != nil {
		ttick = c.Eng.Every(tw.Config().Interval, func() {
			rec.open(spanTwinTick, 0)
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
			rec.close()
		})
	}

	gen.Start()
	// One des.run span per simulated second: the root of every other
	// span. Slicing RunUntil fires the same events in the same order.
	var depths []int
	for t := des.Second; ; t += des.Second {
		if t > cfg.Duration {
			t = cfg.Duration
		}
		rec.open(spanDesRun, uint64(t))
		c.Eng.RunUntil(t)
		rec.close()
		depths = append(depths, c.Eng.Pending())
		if t >= cfg.Duration {
			break
		}
	}
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
	rec.open(spanDesRun, uint64(cfg.Duration)+5)
	c.Eng.RunUntil(cfg.Duration + 5*des.Second)
	rec.close()
	c.CollectInto(f.Warehouse())

	for _, p := range gen.Timeline() {
		if p.Time < cfg.Duration {
			res.Timeline = append(res.Timeline, p)
		}
	}
	var buf bytes.Buffer
	if err := experiment.WriteTimelineCSV(&buf, res); err != nil {
		panic(err) // bytes.Buffer writes do not fail
	}
	queued, active := c.TierOccupancy(cluster.Web)
	vms := 0
	if n := len(res.VMs); n > 0 {
		vms = res.VMs[n-1]
	}
	sort.Ints(depths)
	return tracedRun{
		outcome: outcome{
			Issued:     issued,
			OK:         ok,
			Errors:     failed,
			Sheds:      int64(c.Sheds()),
			Events:     c.Eng.Fired(),
			P99:        gen.TailLatency(99, cfg.WarmupSkip),
			SimSeconds: float64(cfg.Duration),
			Actions:    len(f.Events()),
			VMs:        vms,
			Estimates:  len(f.Estimates()),
			Hash:       hashBytes(buf.Bytes()),
		},
		InFlight:   int64(queued + active),
		PendingP50: float64(depths[len(depths)/2]),
	}
}
