package workload

import (
	"fmt"
	"math"
	"testing"

	"conscale/internal/des"
	"conscale/internal/rng"
)

// tapLedger is a Tap that counts what it is shown and checks it against
// the clock and the issue order.
type tapLedger struct {
	t        *testing.T
	eng      *des.Engine
	delay    des.Time
	arrivals int
	ok, bad  int
}

func (l *tapLedger) OnArrival(now des.Time) {
	if now != l.eng.Now() {
		l.t.Errorf("OnArrival(%v) at %v", now, l.eng.Now())
	}
	l.arrivals++
}

func (l *tapLedger) OnComplete(start, now des.Time, ok bool) {
	if now != l.eng.Now() {
		l.t.Errorf("OnComplete now=%v at %v", now, l.eng.Now())
	}
	if got := now - start; math.Abs(float64(got-l.delay)) > 1e-9 {
		l.t.Errorf("OnComplete spans %v, the service takes %v", got, l.delay)
	}
	if ok {
		l.ok++
	} else {
		l.bad++
	}
}

// TestTapSeesEveryIssuePath runs the three issue paths over a service
// that answers ok after half a second, with a patience limit of 0.2 s:
// the generator's own samples count every response as abandoned, the tap
// is shown the raw successes, one arrival per issue and one completion
// per response, before the sample is recorded.
func TestTapSeesEveryIssuePath(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  GeneratorConfig
	}{
		{"closed", GeneratorConfig{}},
		{"open", GeneratorConfig{OpenLoop: true}},
		{"streaming", GeneratorConfig{Streaming: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			eng := des.New()
			svc := &instantService{eng: eng, delay: 0.5}
			tap := &tapLedger{t: t, eng: eng, delay: 0.5}
			cfg := mode.cfg
			cfg.Trace = constantTrace(20, 20)
			cfg.ThinkTime = 0.5
			cfg.Abandon = 0.2
			cfg.Tap = tap
			g := NewGenerator(eng, rng.New(21), cfg, svc.submit)
			g.Start()
			eng.Run()
			if tap.arrivals == 0 || tap.arrivals != svc.served {
				t.Fatalf("tap saw %d arrivals, the service %d submissions", tap.arrivals, svc.served)
			}
			if tap.ok != svc.served || tap.bad != 0 {
				t.Fatalf("tap saw %d ok and %d failed of %d raw successes", tap.ok, tap.bad, svc.served)
			}
			if g.GoodputTotal() != 0 || g.ErrorRate() != 1 {
				t.Fatalf("samples: goodput %d, error rate %v; every response was past the patience limit", g.GoodputTotal(), g.ErrorRate())
			}
		})
	}
}

// TestTapSeesFailures checks the other raw outcome.
func TestTapSeesFailures(t *testing.T) {
	eng := des.New()
	svc := &instantService{eng: eng, delay: 0.01, failAll: true}
	tap := &tapLedger{t: t, eng: eng, delay: 0.01}
	g := NewGenerator(eng, rng.New(22), GeneratorConfig{Trace: constantTrace(5, 10), ThinkTime: 0.5, Tap: tap}, svc.submit)
	g.Start()
	eng.Run()
	if tap.bad == 0 || tap.bad != svc.served || tap.ok != 0 {
		t.Fatalf("tap saw %d ok and %d failed of %d failures", tap.ok, tap.bad, svc.served)
	}
}

// TestTapLeavesTrajectoryAlone runs the same seeded population with and
// without a tap: same samples, same timeline.
func TestTapLeavesTrajectoryAlone(t *testing.T) {
	run := func(tapped bool) *Generator {
		eng := des.New()
		svc := &instantService{eng: eng, delay: 0.05}
		cfg := GeneratorConfig{Trace: NewTrace(BigSpike, 200, 60), ThinkTime: 1}
		if tapped {
			cfg.Tap = &tapLedger{t: t, eng: eng, delay: 0.05}
		}
		g := NewGenerator(eng, rng.New(23), cfg, svc.submit)
		g.Start()
		eng.Run()
		return g
	}
	bare, tapped := run(false), run(true)
	if len(bare.Samples()) == 0 || len(bare.Samples()) != len(tapped.Samples()) {
		t.Fatalf("%d samples bare, %d tapped", len(bare.Samples()), len(tapped.Samples()))
	}
	for i, s := range bare.Samples() {
		if s != tapped.Samples()[i] {
			t.Fatalf("sample %d: %+v bare, %+v tapped", i, s, tapped.Samples()[i])
		}
	}
}

// TestNoSamplesKeepsTimeline runs the same seeded population with and
// without NoSamples: the opted-out generator keeps no sample, while its
// timeline and what its tap is shown stay the same.
func TestNoSamplesKeepsTimeline(t *testing.T) {
	run := func(noSamples bool) (*Generator, *tapLedger) {
		eng := des.New()
		svc := &instantService{eng: eng, delay: 0.05}
		tap := &tapLedger{t: t, eng: eng, delay: 0.05}
		cfg := GeneratorConfig{Trace: NewTrace(BigSpike, 200, 60), ThinkTime: 1, Tap: tap, NoSamples: noSamples}
		g := NewGenerator(eng, rng.New(23), cfg, svc.submit)
		g.Start()
		eng.Run()
		return g, tap
	}
	kept, keptTap := run(false)
	none, noneTap := run(true)
	if len(kept.Samples()) == 0 || none.Samples() != nil {
		t.Fatalf("%d samples kept by default, %d with NoSamples", len(kept.Samples()), len(none.Samples()))
	}
	if keptTap.arrivals != noneTap.arrivals || keptTap.ok != noneTap.ok || keptTap.bad != noneTap.bad {
		t.Fatalf("tap saw %d/%d/%d by default, %d/%d/%d with NoSamples",
			keptTap.arrivals, keptTap.ok, keptTap.bad, noneTap.arrivals, noneTap.ok, noneTap.bad)
	}
	if a, b := fmt.Sprint(kept.Timeline()), fmt.Sprint(none.Timeline()); a != b {
		t.Fatalf("timelines differ:\n%s\n%s", a, b)
	}
	for name, read := range map[string]func(){
		"TailLatency":   func() { none.TailLatency(99, 0) },
		"TailLatencies": func() { none.TailLatencies(0, 50, 99) },
		"ErrorRate":     func() { none.ErrorRate() },
		"GoodputTotal":  func() { none.GoodputTotal() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with NoSamples returned instead of panicking", name)
				}
			}()
			read()
		}()
	}
}

// TestTailLatenciesOneSort checks the several-percentile form against the
// one-percentile one it now backs, warm-up cut included.
func TestTailLatenciesOneSort(t *testing.T) {
	eng := des.New()
	rnd := rng.New(24)
	g := NewGenerator(eng, rng.New(25), GeneratorConfig{Trace: constantTrace(50, 30), ThinkTime: 0.3},
		func(done func(bool)) {
			ok := rnd.Float64() > 0.05
			eng.After(des.Time(rnd.LogNormal(0.05, 0.7)), func() { done(ok) })
		})
	g.Start()
	eng.Run()
	for _, from := range []des.Time{0, 10} {
		got := g.TailLatencies(from, 50, 95, 99)
		for i, p := range []float64{50, 95, 99} {
			if want := g.TailLatency(p, from); got[i] != want || !(want > 0) {
				t.Fatalf("from %v: p%v = %v, TailLatency says %v", from, p, got[i], want)
			}
		}
	}
	if got := g.TailLatencies(0); len(got) != 0 {
		t.Fatalf("no percentiles asked, %d returned", len(got))
	}
}
