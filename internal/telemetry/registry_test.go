package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestHotPathZeroAlloc pins the allocation discipline the package promises:
// instrument updates never allocate, whether the instrument is live or a
// nil no-op (a nil registry hands out nil instruments). This is the
// same pin internal/trace carries for span recording.
func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_ctr", "test counter")
	g := reg.Gauge("t_gauge", "test gauge")
	h := reg.Histogram("t_hist", "test histogram")

	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter-inc", func() { c.Inc() }},
		{"counter-add", func() { c.Add(3) }},
		{"gauge-set", func() { g.Set(1.5) }},
		{"gauge-add", func() { g.Add(-0.5) }},
		{"hist-observe", func() { h.Observe(0.042) }},
		{"nil-counter", func() { nilC.Inc() }},
		{"nil-gauge", func() { nilG.Set(1) }},
		{"nil-hist", func() { nilH.Observe(1) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("t_total", "h", "tier", "app", "server", "app-0")
	b := reg.Counter("t_total", "h", "server", "app-0", "tier", "app") // reordered labels
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("aliased counter value = %d, want 1", b.Value())
	}
	if reg.Families() != 1 {
		t.Fatalf("families = %d, want 1", reg.Families())
	}
	// A second labelled series joins the same family.
	reg.Counter("t_total", "h", "tier", "db", "server", "db-0")
	if reg.Families() != 1 {
		t.Fatalf("families after second series = %d, want 1", reg.Families())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_thing", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("t_thing", "h")
}

func TestNilRegistryConstructors(t *testing.T) {
	var reg *Registry
	if c := reg.Counter("x", "h"); c != nil {
		t.Fatal("nil registry returned non-nil counter")
	}
	if g := reg.Gauge("x", "h"); g != nil {
		t.Fatal("nil registry returned non-nil gauge")
	}
	if h := reg.Histogram("x", "h"); h != nil {
		t.Fatal("nil registry returned non-nil histogram")
	}
	reg.GaugeFunc("x", "h", func() float64 { return 1 })
	reg.Collect("y", "h", KindGauge, func(emit func(float64, ...string)) {})
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v len=%d", err, sb.Len())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_total", "h")
	h := reg.Histogram("t_rt", "h")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := labelKey([]string{"path", `a\b"c` + "\n"})
	want := `{path="a\\b\"c\n"}`
	if got != want {
		t.Fatalf("labelKey = %q, want %q", got, want)
	}
}
