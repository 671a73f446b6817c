// Custom controller: register a scaling policy of your own in the
// controller zoo and drive a cluster with it through the public facade.
//
// The policy here is deliberately tiny — a "queue watcher" that launches
// an app VM whenever requests queue at the tier for three consecutive
// ticks, and ignores everything else. Real policies read more of the
// Observation (tier CPU, the windowed tail, the SCT concurrency signal)
// and act on both tiers; see the built-in families in
// internal/scaling for fuller shapes.
//
// Run with:
//
//	go run ./examples/controller
package main

import (
	"fmt"

	"conscale"
)

// queueWatcher scales the app tier out on sustained queueing. It keeps
// no per-run state besides the breach counter, so the same seed and
// trace always reproduce the same decisions.
type queueWatcher struct {
	env    conscale.ControllerEnv
	queued int
}

func (q *queueWatcher) Name() string { return "queue-watcher" }

func (q *queueWatcher) Init(env conscale.ControllerEnv) { q.env = env }

func (q *queueWatcher) Stop() {}

func (q *queueWatcher) Tick(obs *conscale.ControllerObservation) {
	if obs.App.Queue > 0 {
		q.queued++
	} else {
		q.queued = 0
	}
	if q.queued >= 3 && !obs.App.Pending {
		cause := fmt.Sprintf("queue-watcher: %d requests queued for %d ticks", obs.App.Queue, q.queued)
		if q.env.Act.ScaleOut(conscale.TierApp, cause) {
			q.queued = 0
		}
	}
}

func main() {
	// Register the policy under a unique name. Registration makes it
	// buildable by name — including as a `-tournament-controllers` entry
	// in a tournament that embeds this program's package.
	conscale.RegisterController("queue-watcher", func(opts conscale.ControllerOptions) conscale.Controller {
		return &queueWatcher{}
	})

	ctrl, err := conscale.NewController("queue-watcher", conscale.ControllerOptions{Seed: 1})
	if err != nil {
		panic(err)
	}

	// Attach it to a cluster via the runtime: the runtime owns metric
	// collection, decision ticks, dark-tier repair, and the decision log;
	// the policy only decides.
	c := conscale.NewCluster(conscale.DefaultClusterConfig())
	rt := conscale.NewControllerRuntime(c, ctrl, conscale.ControllerOptions{Seed: 1})
	rt.Start()

	// A burst of 4000 users against the 1/1/1 deployment queues the app
	// tier within seconds — exactly what the policy watches for.
	gen := conscale.NewGenerator(c.Eng, conscale.NewRand(1), conscale.GeneratorConfig{
		Trace:     conscale.NewConstantTrace(4000, 120*conscale.Second),
		ThinkTime: 3,
	}, c.Submit)
	gen.Start()
	c.Eng.RunUntil(120 * conscale.Second)
	rt.Stop()

	fmt.Printf("completed %d requests, p99 = %.0f ms, app VMs = %d\n",
		gen.GoodputTotal(), gen.TailLatency(99, 0)*1000, c.ReadyCount(conscale.TierApp))
	for _, e := range rt.Events() {
		fmt.Printf("  t=%5.1fs %-9s %-4s %s\n", float64(e.Time), e.Kind, e.Tier, e.Detail)
	}
}
