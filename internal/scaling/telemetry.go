package scaling

import (
	"sort"

	"conscale/internal/telemetry"
)

// RegisterTelemetry publishes the runtime's decision state on a metrics
// registry. Everything here is collector-based — counts and estimates the
// runtime already tracks are read at scrape time — so the control loops
// pay nothing for it, and because collectors only read, arming telemetry
// cannot change a run's trajectory.
func (f *Framework) RegisterTelemetry(reg *telemetry.Registry) {
	if f == nil || reg == nil {
		return
	}
	reg.Collect("conscale_scaling_events_total", "Scaling log entries by action kind.",
		telemetry.KindCounter, func(emit func(float64, ...string)) {
			var byKind [4]int
			for _, e := range f.events {
				if int(e.Kind) < len(byKind) {
					byKind[e.Kind]++
				}
			}
			for k, n := range byKind {
				emit(float64(n), "kind", EventKind(k).String())
			}
		})
	reg.CounterFunc("conscale_scaling_triggers_total",
		"Threshold and SLA triggers that armed a scale-out.",
		func() float64 { return float64(f.triggers) })
	reg.CounterFunc("conscale_scaling_cooldown_skips_total",
		"Triggers suppressed by a pending scale or active cooldown.",
		func() float64 { return float64(f.cooldownSkips) })
	reg.CounterFunc("conscale_controller_actions_total",
		"Scale actions the actuator accepted.",
		func() float64 { return float64(f.actions) })
	reg.CounterFunc("conscale_controller_denies_total",
		"Scale actions the actuator refused (capacity, last VM).",
		func() float64 { return float64(f.denies) })

	sctCollector := func(pick func(te timedEstimate) float64) telemetry.Collector {
		return func(emit func(float64, ...string)) {
			names := make([]string, 0, len(f.sig.cached))
			for name := range f.sig.cached {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				emit(pick(f.sig.cached[name]), "server", name)
			}
		}
	}
	reg.Collect("conscale_sct_qlower", "Lower bound of the SCT rational concurrency range.",
		telemetry.KindGauge, sctCollector(func(te timedEstimate) float64 { return float64(te.est.Qlower) }))
	reg.Collect("conscale_sct_qupper", "Upper bound of the SCT rational concurrency range.",
		telemetry.KindGauge, sctCollector(func(te timedEstimate) float64 { return float64(te.est.Qupper) }))
	reg.Collect("conscale_sct_plateau_tp", "Estimated plateau throughput of the SCT curve.",
		telemetry.KindGauge, sctCollector(func(te timedEstimate) float64 { return te.est.PlateauTP }))
}
