// Package admission implements pluggable per-server admission control:
// the decision, taken at accept-queue entry before pool admit, of
// whether to serve a request or shed it immediately.
//
// Scaling reacts to overload in tens of seconds (boot a VM, widen a
// pool); admission reacts in microseconds by refusing the work that
// would otherwise sit in a queue blowing the tail. The two are
// orthogonal levers on the same p99-vs-goodput frontier: every shed
// buys queue headroom at the price of one failed request. The
// `-run frontier` experiment measures exactly that trade across
// policies × controllers × traces.
//
// Four policies ship:
//
//   - always: admit everything — the byte-identical baseline. A server
//     with this policy (or with no policy at all) executes exactly the
//     pre-admission request path.
//   - queue-cap: admit while the accept queue is shorter than a fixed
//     cap. The earliest and simplest form of load shedding: bound the
//     worst-case queueing delay by bounding the queue.
//   - codel: CoDel-style deadline dropping adapted to the sim's accept
//     queue. Sojourn time is observed at dequeue; when it stays above
//     Target for a full Interval the policy enters a dropping state and
//     sheds arrivals at the classic interval-shrink cadence
//     (Interval/sqrt(count)) until a dequeue sees sojourn below Target.
//   - priority: two-class shedding mapped from the 24 RUBBoS servlet
//     interactions — browse-class (read-only) requests shed at a low
//     queue threshold, read-write requests only at the full cap, so
//     the revenue-bearing class keeps its queue headroom longest.
//
// Invariants every policy must uphold (DESIGN.md §17):
//
//   - Determinism: Admit and ObserveDequeue are pure state machines
//     over (now, class, queueLen, sojourn). No randomness, no wall
//     clock, no scheduled callbacks — the same request stream produces
//     the same shed set on every run.
//   - Zero allocations: both methods sit on the per-request hot path
//     and must not allocate (pinned by TestPolicyZeroAlloc).
//   - Nil is off: a server with a nil Policy takes the untouched
//     pre-admission code path; "always" must be observationally
//     identical to nil.
package admission

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"conscale/internal/des"
)

// Class is the admission class of a request, mapped from the RUBBoS
// servlet mix: read-only browse interactions are sheddable before the
// read-write ones that carry state changes.
type Class uint8

const (
	// ClassBrowse marks read-only interactions (BrowseCategories,
	// SearchItemsInCategory, ViewItem, ...) — shed first.
	ClassBrowse Class = iota
	// ClassReadWrite marks state-changing interactions (StoreBuyNow,
	// StoreComment, RegisterUser, ...) — shed last.
	ClassReadWrite
	// NumClasses sizes per-class arrays.
	NumClasses = iota
)

// String names the class for labels and reports.
func (c Class) String() string {
	switch c {
	case ClassBrowse:
		return "browse"
	case ClassReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Policy is the admission decision contract. One instance guards one
// server's accept queue (policies are stateful), created from a Config
// via New.
//
// Admit is consulted at accept-queue entry, before the request is
// appended: queueLen is the current queue length and class the
// request's admission class. Returning false sheds the request — it
// fails immediately without consuming any server resource.
//
// ObserveDequeue is the feedback path: called when a queued request is
// admitted to the thread pool, with the sojourn time it spent in the
// accept queue. Policies that track queueing delay (CoDel) build their
// state here; others ignore it.
type Policy interface {
	// Name returns the registry name of the policy family.
	Name() string
	// Admit decides, at accept-queue entry, whether to serve the request.
	Admit(now des.Time, class Class, queueLen int) bool
	// ObserveDequeue feeds back the accept-queue sojourn of an admitted
	// request at the moment it leaves the queue for the thread pool.
	ObserveDequeue(now des.Time, sojourn des.Time)
}

// Config selects and parameterises a policy. The zero value of every
// field means "use the default"; New validates the result.
type Config struct {
	// Policy is the family name: "always", "queue-cap", "codel" or
	// "priority" (empty means "always").
	Policy string
	// QueueCap is the accept-queue length above which queue-cap and
	// priority shed (default 250).
	QueueCap int
	// BrowseCap is the lower threshold at which priority sheds
	// browse-class requests (default QueueCap/4, minimum 1).
	BrowseCap int
	// Target is CoDel's acceptable accept-queue sojourn (default 100 ms).
	Target des.Time
	// Interval is CoDel's initial drop-spacing interval — sojourn must
	// exceed Target for a full Interval before dropping starts
	// (default 1 s).
	Interval des.Time
}

// withDefaults fills zero fields with the package defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Policy == "" {
		cfg.Policy = Always
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 250
	}
	if cfg.BrowseCap <= 0 {
		cfg.BrowseCap = cfg.QueueCap / 4
		if cfg.BrowseCap < 1 {
			cfg.BrowseCap = 1
		}
	}
	if cfg.Target <= 0 {
		cfg.Target = 100 * des.Millisecond
	}
	if cfg.Interval <= 0 {
		cfg.Interval = des.Second
	}
	return cfg
}

// Registry names of the built-in policy families.
const (
	Always   = "always"
	QueueCap = "queue-cap"
	CoDel    = "codel"
	Priority = "priority"
)

// Names lists the built-in policy families in sorted order.
func Names() []string {
	names := []string{Always, CoDel, Priority, QueueCap}
	sort.Strings(names)
	return names
}

// New builds a fresh policy instance from the config. Each server
// needs its own instance — policies carry per-queue state.
func New(cfg Config) (Policy, error) {
	cfg = cfg.withDefaults()
	if cfg.BrowseCap > cfg.QueueCap {
		return nil, fmt.Errorf("admission: browse cap %d exceeds queue cap %d", cfg.BrowseCap, cfg.QueueCap)
	}
	switch cfg.Policy {
	case Always:
		return alwaysPolicy{}, nil
	case QueueCap:
		return &queueCapPolicy{cap: cfg.QueueCap}, nil
	case CoDel:
		return &codelPolicy{target: cfg.Target, interval: cfg.Interval}, nil
	case Priority:
		return &priorityPolicy{cap: cfg.QueueCap, browseCap: cfg.BrowseCap}, nil
	default:
		return nil, fmt.Errorf("admission: unknown policy %q (have %s)", cfg.Policy, strings.Join(Names(), ", "))
	}
}

// Parse decodes a policy spec string into a Config. The spec is the
// family name, optionally followed by colon-separated key=value
// parameters:
//
//	always
//	queue-cap:cap=200
//	codel:target=50ms,interval=500ms
//	priority:cap=200,browse=40
//
// Durations accept Go-style "50ms"/"1s" suffixes or plain seconds.
func Parse(spec string) (Config, error) {
	var cfg Config
	name, rest, _ := strings.Cut(spec, ":")
	cfg.Policy = strings.TrimSpace(name)
	if cfg.Policy == "" {
		return cfg, fmt.Errorf("admission: empty policy spec")
	}
	if rest == "" {
		if _, err := New(cfg); err != nil {
			return cfg, err
		}
		return cfg, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("admission: bad parameter %q in %q (want key=value)", kv, spec)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "cap":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("admission: bad cap %q in %q", v, spec)
			}
			cfg.QueueCap = n
		case "browse":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("admission: bad browse cap %q in %q", v, spec)
			}
			cfg.BrowseCap = n
		case "target":
			d, err := parseDuration(v)
			if err != nil {
				return cfg, fmt.Errorf("admission: bad target %q in %q", v, spec)
			}
			cfg.Target = d
		case "interval":
			d, err := parseDuration(v)
			if err != nil {
				return cfg, fmt.Errorf("admission: bad interval %q in %q", v, spec)
			}
			cfg.Interval = d
		default:
			return cfg, fmt.Errorf("admission: unknown parameter %q in %q", k, spec)
		}
	}
	if _, err := New(cfg); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Spec renders the config back into Parse's string form, with defaults
// applied.
func (cfg Config) Spec() string {
	cfg = cfg.withDefaults()
	switch cfg.Policy {
	case QueueCap:
		return fmt.Sprintf("%s:cap=%d", cfg.Policy, cfg.QueueCap)
	case CoDel:
		return fmt.Sprintf("%s:target=%s,interval=%s", cfg.Policy,
			formatDuration(cfg.Target), formatDuration(cfg.Interval))
	case Priority:
		return fmt.Sprintf("%s:cap=%d,browse=%d", cfg.Policy, cfg.QueueCap, cfg.BrowseCap)
	default:
		return cfg.Policy
	}
}

func parseDuration(v string) (des.Time, error) {
	mult := des.Second
	switch {
	case strings.HasSuffix(v, "ms"):
		v, mult = strings.TrimSuffix(v, "ms"), des.Millisecond
	case strings.HasSuffix(v, "s"):
		v = strings.TrimSuffix(v, "s")
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("bad duration %q", v)
	}
	return des.Time(f) * mult, nil
}

func formatDuration(d des.Time) string {
	if d < des.Second {
		return strconv.FormatFloat(float64(d/des.Millisecond), 'f', -1, 64) + "ms"
	}
	return strconv.FormatFloat(float64(d), 'f', -1, 64) + "s"
}

// alwaysPolicy admits everything: the baseline against which the
// byte-identity gate compares.
type alwaysPolicy struct{}

// Name returns "always".
func (alwaysPolicy) Name() string { return Always }

// Admit always returns true.
func (alwaysPolicy) Admit(des.Time, Class, int) bool { return true }

// ObserveDequeue ignores the feedback.
func (alwaysPolicy) ObserveDequeue(des.Time, des.Time) {}

// queueCapPolicy sheds every arrival that would push the accept queue
// past a fixed cap.
type queueCapPolicy struct {
	cap int
}

// Name returns "queue-cap".
func (*queueCapPolicy) Name() string { return QueueCap }

// Admit returns true while the queue is below the cap.
func (p *queueCapPolicy) Admit(_ des.Time, _ Class, queueLen int) bool {
	return queueLen < p.cap
}

// ObserveDequeue ignores the feedback.
func (*queueCapPolicy) ObserveDequeue(des.Time, des.Time) {}

// priorityPolicy is a two-threshold queue cap: browse-class arrivals
// shed at the low browseCap, read-write arrivals only at the full cap.
type priorityPolicy struct {
	cap       int
	browseCap int
}

// Name returns "priority".
func (*priorityPolicy) Name() string { return Priority }

// Admit applies the class-specific threshold.
func (p *priorityPolicy) Admit(_ des.Time, class Class, queueLen int) bool {
	if class == ClassBrowse {
		return queueLen < p.browseCap
	}
	return queueLen < p.cap
}

// ObserveDequeue ignores the feedback.
func (*priorityPolicy) ObserveDequeue(des.Time, des.Time) {}

// codelPolicy adapts the CoDel AQM control law (Nichols & Jacobson,
// "Controlling Queue Delay") to the accept queue. The standing-queue
// signal is the *minimum* sojourn over an interval: transient bursts
// whose sojourn dips back below Target are left alone; only a queue
// that keeps every request waiting longer than Target for a full
// Interval is drained by shedding. While dropping, sheds are spaced at
// Interval/sqrt(count) — each successive drop comes sooner, applying
// linearly increasing pressure until a dequeue observes sojourn back
// under Target.
type codelPolicy struct {
	target   des.Time
	interval des.Time

	// firstAbove is the deadline by which sojourn must dip below target
	// to avoid entering the dropping state (0 = sojourn currently below
	// target, nothing pending).
	firstAbove des.Time
	// dropping is the active shedding state; dropNext the next time an
	// arrival will be shed; count the drops so far in this episode.
	dropping bool
	dropNext des.Time
	count    int
}

// Name returns "codel".
func (*codelPolicy) Name() string { return CoDel }

// ObserveDequeue runs the standing-queue estimator: sojourn below
// target at any dequeue resets the episode; sojourn above target for a
// full interval arms the dropping state.
func (p *codelPolicy) ObserveDequeue(now des.Time, sojourn des.Time) {
	if sojourn < p.target {
		p.firstAbove = 0
		p.dropping = false
		return
	}
	if p.firstAbove == 0 {
		p.firstAbove = now + p.interval
		return
	}
	if !p.dropping && now >= p.firstAbove {
		p.dropping = true
		p.dropNext = now
		p.count = 1
	}
}

// Admit sheds at the interval-shrink cadence while dropping; an empty
// queue is never shed into (there is nothing standing to drain).
func (p *codelPolicy) Admit(now des.Time, _ Class, queueLen int) bool {
	if !p.dropping || queueLen == 0 {
		return true
	}
	if now >= p.dropNext {
		p.dropNext = now + des.Time(float64(p.interval)/math.Sqrt(float64(p.count)))
		p.count++
		return false
	}
	return true
}
