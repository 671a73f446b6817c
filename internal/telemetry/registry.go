// Package telemetry is the reproduction's continuous signal surface: a
// concurrency-safe metrics registry (counters, gauges, and log-linear
// histograms with bounded relative error), a deterministic sim-time scraper
// that snapshots the registry into an OpenMetrics-style timeline, a
// Prometheus text-format exposition endpoint for live mode, and a
// multi-window SLO burn-rate monitor over the paper's p99 < 300 ms target.
//
// The package follows the same observation discipline as internal/trace:
// every hot-path method is nil-receiver safe and allocation-free when the
// registry is disabled (pinned by an AllocsPerRun test), instrumentation
// only ever *reads* simulation state — it never draws randomness and never
// mutates scheduling — so an enabled-telemetry run is byte-identical to a
// disabled one on the timeline CSV. The registry itself is dual-clock: in
// simulation mode the Scraper snapshots it on virtual time; in live mode
// Handler serves the identical registry over real HTTP.
package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for exposition.
type Kind uint8

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Collector emits a family's dynamic series at collection time (per-VM
// gauges whose population changes as the cluster scales). It runs under the
// registry's read lock: it must not register new metrics, and it must emit
// in a deterministic order (sort map keys) so exposition output is stable.
type Collector func(emit func(value float64, labels ...string))

// series is one static instrument inside a family.
type series struct {
	labels string // pre-rendered `{k="v",...}` or ""
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // CounterFunc / GaugeFunc
}

// family groups every series sharing one metric name.
type family struct {
	name, help string
	kind       Kind
	series     []*series
	collectors []Collector
}

// Registry holds metric families. All methods are safe for concurrent use;
// a nil *Registry is a valid, inert receiver whose constructors return nil
// instruments (whose methods are in turn no-ops). Registration is
// idempotent: asking for an existing (name, labels) instrument returns the
// original, so per-VM instruments survive re-registration.
type Registry struct {
	enabled atomic.Bool

	mu     sync.RWMutex
	fams   []*family
	byName map[string]*family
	byKey  map[string]*series
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		byName: make(map[string]*family),
		byKey:  make(map[string]*series),
	}
	r.enabled.Store(true)
	return r
}

// SetEnabled flips the registry live (safe from any goroutine). While
// disabled every hot-path update is dropped without allocating and the
// exposition output is empty.
func (r *Registry) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports the live switch.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// labelKey renders variadic key/value pairs into a canonical (sorted)
// Prometheus label string.
func labelKey(labels []string) string {
	return string(appendLabels(nil, labels))
}

// appendLabels appends the canonical label set of variadic key/value
// pairs — `{k="v",...}` sorted by key, nothing for no pairs — to dst.
// Panics on odd pair counts: label sets are wired at registration time,
// so a mismatch is a programming error.
func appendLabels(dst []byte, labels []string) []byte {
	if len(labels) == 0 {
		return dst
	}
	if len(labels)%2 != 0 {
		panic("telemetry: odd label key/value count")
	}
	// Insertion-sort the pairs' offsets by key: label sets hold a few
	// pairs, and the offsets of up to eight stay off the heap.
	order := make([]int, 0, 8)
	for i := 0; i < len(labels); i += 2 {
		j := len(order)
		order = append(order, i)
		for ; j > 0 && labels[order[j-1]] > labels[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	dst = append(dst, '{')
	for n, i := range order {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[i]...)
		dst = append(dst, '=', '"')
		dst = append(dst, escapeLabel(labels[i+1])...)
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register finds or creates the (name, labels) series in a family of the
// given kind.
func (r *Registry) register(name, help string, kind Kind, labels []string) *series {
	ls := labelKey(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if f := r.byName[name]; f != nil && f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
		}
		return s
	}
	f := r.family(name, help, kind)
	s := &series{labels: ls}
	f.series = append(f.series, s)
	r.byKey[key] = s
	return s
}

// family finds or creates the named family (caller holds the write lock).
func (r *Registry) family(name, help string, kind Kind) *family {
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// Counter registers (or finds) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.register(name, help, KindCounter, labels)
	if s.ctr == nil {
		s.ctr = &Counter{reg: r}
	}
	return s.ctr
}

// Gauge registers (or finds) a settable gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.register(name, help, KindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{reg: r}
	}
	return s.gauge
}

// Histogram registers (or finds) a log-linear response-time histogram.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(name, help, KindHistogram, labels)
	if s.hist == nil {
		s.hist = &Histogram{reg: r}
	}
	return s.hist
}

// GaugeFunc registers a gauge evaluated at collection time. fn must be safe
// to call from the scraping goroutine and must only read state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.register(name, help, KindGauge, labels).fn = fn
}

// CounterFunc registers a counter whose cumulative value is read from fn at
// collection time (lifetime totals an existing component already tracks).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.register(name, help, KindCounter, labels).fn = fn
}

// Collect registers a dynamic family: fn re-emits the current series set on
// every collection, which is how per-VM metrics follow scale-out/in without
// unregistration bookkeeping.
func (r *Registry) Collect(name, help string, kind Kind, fn Collector) {
	if r == nil || fn == nil {
		return
	}
	if kind == KindHistogram {
		panic("telemetry: histogram collectors are not supported")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kind)
	f.collectors = append(f.collectors, fn)
}

// Families returns the number of registered metric families.
func (r *Registry) Families() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.fams)
}

// Counter is a monotonically increasing counter. Nil receivers and disabled
// registries make every method an allocation-free no-op.
type Counter struct {
	reg *Registry
	n   atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c == nil || !c.reg.enabled.Load() {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a settable instantaneous value. Nil receivers and disabled
// registries make every method an allocation-free no-op.
type Gauge struct {
	reg  *Registry
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.reg.enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add offsets the gauge by delta (lock-free).
func (g *Gauge) Add(delta float64) {
	if g == nil || !g.reg.enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
