package main

import (
	"flag"
	"math"
	"runtime"
	"testing"
	"time"

	"conscale/internal/admission"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/forensics"
	"conscale/internal/lb"
	"conscale/internal/metrics"
	"conscale/internal/rng"
	"conscale/internal/rubbos"
	"conscale/internal/sct"
	"conscale/internal/server"
	"conscale/internal/sla"
	"conscale/internal/telemetry"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// probe times one layer's public hot function from outside, at the
// paper cell's operating point, through testing.Benchmark. name is the
// metric prefix (module first); emits lists the suffixes reported:
// "ns", "allocs" and "bytes" are per op, anything else is a custom
// value the probe sets with b.ReportMetric under that key.
type probe struct {
	name  string
	emits []string
	fn    func(b *testing.B)
}

var suffixUnit = map[string]string{"ns": "ns", "allocs": "allocs", "bytes": "B", "nproc": "x"}

func (p probe) defs() []metricDef {
	defs := make([]metricDef, len(p.emits))
	for i, s := range p.emits {
		better := "lower"
		if s == "nproc" {
			better = "higher"
		}
		defs[i] = metricDef{Name: p.name + "_" + s, Unit: suffixUnit[s], Better: better}
	}
	return defs
}

// The paper cell's operating point, used to size the probes' state:
// ~1 300 client requests/s at the peak of the trace, a 10 s detector
// window, 3 600 tuples per SCT estimate (3 minutes of 50 ms windows),
// and the scale tier's 17 shards at a 20 ms lookahead.
const (
	paperReqPerSec = 1300
	stripeShards   = 17
	stripeHorizon  = 20 * des.Millisecond
)

// probeRounds and probeBenchtime trade precision for run time: the
// probes are context for the spans, not gated numbers.
const (
	probeRounds    = 3
	probeBenchtime = "20ms"
)

// runProbes runs every probe best-of-probeRounds (fastest ns/op; the
// other values are read off the same round) and returns the metrics.
func runProbes() map[string]float64 {
	testing.Init() // registers -test.benchtime; a no-op under go test
	if err := flag.Set("test.benchtime", probeBenchtime); err != nil {
		panic(err) // the flag exists once Init has run
	}
	out := map[string]float64{}
	for _, p := range probes {
		var best testing.BenchmarkResult
		for round := 0; round < probeRounds; round++ {
			r := testing.Benchmark(p.fn)
			if round == 0 || nsPerOp(r) < nsPerOp(best) {
				best = r
			}
		}
		for _, s := range p.emits {
			var v float64
			switch s {
			case "ns":
				v = nsPerOp(best)
			case "allocs":
				v = float64(best.AllocsPerOp())
			case "bytes":
				v = float64(best.AllocedBytesPerOp())
			default:
				v = best.Extra[s]
			}
			out[p.name+"_"+s] = v
		}
	}
	return out
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return math.Inf(1)
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// instant is a backend that completes every request at once.
type instant struct{}

func (instant) Submit(req *server.Request) { req.Done(true) }

// sink keeps probe results alive past the optimiser.
var sink float64

var probes = []probe{
	{"des.engine.schedule_fire", []string{"ns"}, func(b *testing.B) {
		e := des.New()
		fn := func() {}
		for i := 0; i < b.N; i++ {
			e.After(1, fn)
			e.Step()
		}
	}},
	{"des.engine.schedule_fire_depth1k", []string{"ns"}, func(b *testing.B) {
		e := des.New()
		fn := func() {}
		for i := 0; i < 1000; i++ {
			e.After(des.Time(1+i), fn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.After(1000, fn)
			e.Step()
		}
	}},
	{"des.engine.at_batch", []string{"ns"}, func(b *testing.B) {
		// One op = 64 merged deliveries bulk-inserted and fired.
		e := des.New()
		fn := func() {}
		evs := make([]des.BatchEvent, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := e.Now() + 1
			for j := range evs {
				evs[j] = des.BatchEvent{At: at + des.Time(j), Fn: fn}
			}
			e.AtBatch(evs)
			e.RunUntil(at + des.Time(len(evs)))
		}
	}},
	{"des.striper.window", []string{"ns"}, func(b *testing.B) {
		// One op = one traffic-free lookahead window over 17 shards, each
		// with a local event in it so the window cannot be skipped.
		s := des.NewStriper(stripeShards, stripeHorizon)
		defer s.Close()
		for i := 0; i < stripeShards; i++ {
			sh := s.Shard(i)
			var tick func()
			tick = func() { sh.Eng.At(sh.Eng.Now()+stripeHorizon, tick) }
			sh.Eng.At(0, tick)
		}
		s.SetMaxBatch(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now() + stripeHorizon)
		}
	}},
	{"des.striper.delivered_msg", []string{"ns"}, func(b *testing.B) {
		// One op = one cross-shard message sent, merged and delivered:
		// every shard sends 8 per window, the scale tier's fan-in shape.
		s := loadedStriper(1, 0)
		defer s.Close()
		for w := 0; w < 64; w++ {
			s.RunUntil(s.Now() + stripeHorizon)
		}
		base := s.Stats().Delivered
		b.ResetTimer()
		for s.Stats().Delivered-base < uint64(b.N) {
			s.RunUntil(s.Now() + stripeHorizon)
		}
	}},
	{"des.striper.speedup", []string{"nproc"}, func(b *testing.B) {
		// Wall time of the same loaded windows on 1 worker over nproc
		// workers (1.0 on a one-CPU host).
		seq := loadedStriper(1, 200)
		defer seq.Close()
		par := loadedStriper(runtime.NumCPU(), 200)
		defer par.Close()
		var tSeq, tPar time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			seq.RunUntil(seq.Now() + stripeHorizon)
			t1 := time.Now()
			par.RunUntil(par.Now() + stripeHorizon)
			tSeq += t1.Sub(t0)
			tPar += time.Since(t1)
		}
		b.ReportMetric(float64(tSeq)/float64(tPar), "nproc")
	}},
	{"rng.lognormal", []string{"ns"}, func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			sink += r.LogNormal(0.002, 0.3)
		}
	}},
	{"rng.exp", []string{"ns"}, func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			sink += r.Exp(3)
		}
	}},
	{"server.request", []string{"ns", "allocs"}, func(b *testing.B) {
		// One server.Server running a CPU + downstream call + CPU visit
		// program against a second server, 64 requests per engine drain.
		eng := des.New()
		rnd := rng.New(1)
		cfg := server.Config{Name: "tomcat1", Cores: 1, ThreadLimit: 60, AcceptQueue: 3000,
			Overhead: server.DefaultOverhead(), DemandCV: 0.3}
		front := server.New(eng, rnd.Split(), cfg)
		cfg.Name = "mysql1"
		back := server.New(eng, rnd.Split(), cfg)
		call := &server.OutCall{Target: back, Build: func() []server.Phase {
			return []server.Phase{{Kind: server.PhaseCPU, Duration: 0.0005}}
		}}
		done := func(bool) {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			front.Submit(&server.Request{Done: done, Phases: []server.Phase{
				{Kind: server.PhaseCPU, Duration: 0.001},
				{Kind: server.PhaseCall, Call: call},
				{Kind: server.PhaseCPU, Duration: 0.0005},
			}})
			if i%64 == 63 {
				eng.Run()
			}
		}
		eng.Run()
	}},
	{"lb.submit", []string{"ns", "allocs"}, func(b *testing.B) {
		// Leastconn pick over 4 backends plus the in-flight bookkeeping.
		bal := lb.New("lb", lb.LeastConn)
		for _, n := range []string{"a", "b", "c", "d"} {
			bal.Add(n, instant{})
		}
		done := func(bool) {}
		req := &server.Request{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Done = done
			bal.Submit(req)
		}
	}},
	{"cluster.request", []string{"ns", "allocs", "bytes"}, func(b *testing.B) {
		// The whole request path on the paper cell in 1 024-request open
		// batches — the BenchmarkSimulatorEventRate shape.
		c := cluster.New(cluster.DefaultConfig())
		done := func(bool) {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Submit(done)
			if i%1024 == 1023 {
				c.Eng.Run()
			}
		}
		c.Eng.Run()
	}},
	{"workload.closed_arrival", []string{"ns", "allocs"}, func(b *testing.B) {
		// 7 500 closed-loop users over a system that answers at once: one
		// op = issue, sample append, think draw, reschedule.
		eng := des.New()
		gen := workload.NewGenerator(eng, rng.New(1), workload.GeneratorConfig{
			Trace:     workload.NewConstantTrace(7500, des.Time(1e9)),
			ThinkTime: 3,
		}, func(done func(ok bool)) { done(true) })
		gen.Start()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	}},
	{"workload.streaming_arrival", []string{"ns", "allocs"}, func(b *testing.B) {
		eng := des.New()
		gen := workload.NewGenerator(eng, rng.New(1), workload.GeneratorConfig{
			Trace:     workload.NewConstantTrace(1_000_000, des.Time(1e9)),
			ThinkTime: 7,
			Streaming: true,
		}, func(done func(ok bool)) { done(true) })
		gen.Start()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	}},
	{"metrics.arrive_depart", []string{"ns"}, func(b *testing.B) {
		// Arrive + Depart at the paper cell's request rate, so a 50 ms
		// window closes every 65 requests.
		r := metrics.NewRecorder(metrics.DefaultWindow)
		for i := 0; i < b.N; i++ {
			now := des.Time(i) / paperReqPerSec
			r.Arrive(now)
			r.Depart(now, 0.002)
			if i%4096 == 4095 {
				r.Flush(now)
			}
		}
	}},
	{"metrics.flush", []string{"ns"}, func(b *testing.B) {
		// One op = one second of 50 ms windows closed and flushed.
		r := metrics.NewRecorder(metrics.DefaultWindow)
		for i := 0; i < b.N; i++ {
			now := des.Time(i)
			r.Arrive(now)
			r.Depart(now, 0.002)
			r.Flush(now + des.Second)
		}
	}},
	{"sct.estimate_3600", []string{"ns"}, func(b *testing.B) {
		samples := sctSamples(3600)
		est := sct.New(sct.DefaultConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, _ := est.Estimate(samples)
			sink += e.PlateauTP
		}
	}},
	{"admission.admit_priority", []string{"ns", "allocs"}, func(b *testing.B) {
		cfg, err := admission.Parse(overloadSpec)
		if err != nil {
			b.Fatal(err)
		}
		p, err := admission.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			class := admission.ClassBrowse
			if i&7 == 7 {
				class = admission.ClassReadWrite
			}
			p.Admit(des.Time(i)*des.Millisecond, class, i&511)
		}
	}},
	{"telemetry.histogram_observe", []string{"ns"}, func(b *testing.B) {
		h := telemetry.NewRegistry().Histogram("bench_rt_seconds", "bench")
		for i := 0; i < b.N; i++ {
			h.Observe(0.001 * float64(i%700+1))
		}
	}},
	{"forensics.detector_observe", []string{"ns"}, func(b *testing.B) {
		// The 10 s exact window at the paper cell's rate: it prunes as
		// fast as it grows, holding ~13 000 samples.
		d := forensics.NewDetector(forensics.DetectorConfig{})
		for i := 0; i < b.N; i++ {
			d.Observe(des.Time(i)/paperReqPerSec, 0.1, true)
		}
	}},
	{"forensics.detector_tick", []string{"ns"}, func(b *testing.B) {
		// One op = one simulated second: 1 300 observations and the tick
		// that takes the exact p99 of the 10 s window.
		d := forensics.NewDetector(forensics.DetectorConfig{})
		for i := 0; i < b.N; i++ {
			now := des.Time(i)
			for j := 0; j < paperReqPerSec; j++ {
				d.Observe(now, 0.05+0.0001*float64(j%500), true)
			}
			d.Tick(now)
		}
	}},
	{"twin.tick", []string{"ns"}, func(b *testing.B) {
		// One twin evaluation at the paper cell's peak: window harvest,
		// snapshot, MVA solve at 7 500 clients, residuals, drift update.
		wl := rubbos.NewWorkload(rubbos.BrowseOnly, 1)
		o := twin.New(twin.Config{}, twin.Model{
			Workload:  func() *rubbos.Workload { return wl },
			ThinkTime: 3,
			WebCores:  1, AppCores: 1, DBCores: 1,
			DiskChans: 1,
		})
		obs := twin.Observation{Clients: 7500,
			Web: twin.TierObs{Ready: 2, CPU: 0.5},
			App: twin.TierObs{Ready: 4, CPU: 0.6},
			DB:  twin.TierObs{Ready: 2, CPU: 0.5}}
		for i := 0; i < b.N; i++ {
			obs.Time += o.Config().Interval
			for j := 0; j < 100; j++ {
				o.ObserveArrival()
				o.Observe(obs.Time, 0.05, true)
			}
			o.Tick(obs)
		}
	}},
	{"sla.p2_add", []string{"ns"}, func(b *testing.B) {
		q := sla.NewP2(0.99)
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			q.Add(r.LogNormal(0.05, 0.5))
		}
	}},
	{"sla.window_tail", []string{"ns"}, func(b *testing.B) {
		// Add into the exact 10 s window at the paper cell's rate, with
		// the once-a-second percentile read that prunes it.
		w := sla.NewWindowTail(10 * des.Second)
		for i := 0; i < b.N; i++ {
			now := des.Time(i) / paperReqPerSec
			w.Add(now, 0.05)
			if i%paperReqPerSec == 0 {
				sink += w.Percentile(now, 99)
			}
		}
	}},
}

// loadedStriper builds the scale tier's shard layout with every shard
// sending 8 messages per window to the next shards and firing work local
// events per window.
func loadedStriper(workers, work int) *des.Striper {
	s := des.NewStriper(stripeShards, stripeHorizon)
	s.SetWorkers(workers)
	fn := func() {}
	for i := 0; i < stripeShards; i++ {
		i := i
		sh := s.Shard(i)
		var tick func()
		tick = func() {
			for k := 0; k < 8; k++ {
				sh.Send((i+1+k)%stripeShards, stripeHorizon, fn)
			}
			for k := 0; k < work; k++ {
				sh.Eng.After(des.Time(k+1)*stripeHorizon/des.Time(work+2), fn)
			}
			sh.Eng.At(sh.Eng.Now()+stripeHorizon, tick)
		}
		sh.Eng.At(0, tick)
	}
	return s
}

// sctSamples synthesises n 50 ms tuples along a saturating throughput
// curve (knee near 20, degradation beyond), concurrency sweeping 1..60.
func sctSamples(n int) []metrics.WindowSample {
	r := rng.New(1)
	out := make([]metrics.WindowSample, n)
	for i := range out {
		q := float64(1 + i%60)
		tp := 1500 * q / (q + 8)
		if q > 20 {
			tp *= 1 - 0.004*(q-20)
		}
		tp *= 0.95 + 0.1*r.Float64()
		out[i] = metrics.WindowSample{
			Start:       des.Time(i) * metrics.DefaultWindow,
			Concurrency: q,
			Throughput:  tp,
			RT:          q / tp,
			Completions: int(tp * float64(metrics.DefaultWindow)),
		}
	}
	return out
}
