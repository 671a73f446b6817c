package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"conscale/internal/forensics"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// TestTwinRunByteIdentical is the acceptance-criterion test: arming the
// analytical twin must leave the simulated trajectory bit-identical to
// a bare run. The twin reads the client stream through the generator's tap and its tick
// only calls read-only cluster accessors.
func TestTwinRunByteIdentical(t *testing.T) {
	bare := Run(shortRun(scaling.ConScale, workload.BigSpike, 3))

	cfg := shortRun(scaling.ConScale, workload.BigSpike, 3)
	cfg.Tracing = &trace.Config{SampleRate: 1.0 / 8}
	cfg.Forensics = &forensics.Config{}
	cfg.Twin = &twin.Config{}
	armed := Run(cfg)

	var a, b bytes.Buffer
	if err := WriteTimelineCSV(&a, bare); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelineCSV(&b, armed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("arming the twin changed the timeline CSV")
	}
	if !reflect.DeepEqual(bare.VMs, armed.VMs) {
		t.Fatal("arming the twin changed the VM series")
	}
	if armed.Twin == nil {
		t.Fatal("armed run has no twin handle")
	}
	if armed.Twin.Ticks() == 0 {
		t.Fatal("twin evaluated no snapshots")
	}
	if len(armed.Twin.Samples()) == 0 {
		t.Fatal("twin retained no samples")
	}
}

// TestTwinRunCollectsApplicableSamples checks the twin finds applicable
// steady windows on a gentle trace and marks the spike transition
// inapplicable rather than flagging drift off a scale-out.
func TestTwinRunCollectsApplicableSamples(t *testing.T) {
	cfg := shortRun(scaling.ConScale, workload.SlowlyVarying, 1)
	cfg.MaxUsers = 2500
	cfg.Twin = &twin.Config{}
	res := Run(cfg)
	if res.Twin == nil {
		t.Fatal("no twin")
	}
	var applicable, inapplicable int
	for _, s := range res.Twin.Samples() {
		if s.Applicable {
			applicable++
		} else {
			inapplicable++
		}
	}
	if applicable == 0 {
		t.Fatalf("no applicable samples out of %d", applicable+inapplicable)
	}
	// The sample series must survive CSV export with one row per tick.
	var buf bytes.Buffer
	if err := WriteTwinCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != len(res.Twin.Samples())+1 {
		t.Fatalf("csv rows = %d, samples = %d", lines, len(res.Twin.Samples()))
	}
}
