package experiment

import (
	"bytes"
	"strings"
	"testing"

	"conscale/internal/scaling"
	"conscale/internal/telemetry"
	"conscale/internal/workload"
)

// telemeteredShortRun is shortRun with the full telemetry layer armed:
// registry across the stack, 5 s scraper, SLO burn-rate monitor.
func telemeteredShortRun(mode scaling.Mode, traceName string, seed uint64) RunConfig {
	cfg := shortRun(mode, traceName, seed)
	cfg.Telemetry = &TelemetryOptions{}
	return cfg
}

// TestTelemeteredRunIsByteIdenticalToBare is the determinism oracle from the
// package contract: telemetry only reads simulation state, so arming the
// whole layer — registry, collectors, scraper ticks, SLO monitor — must
// leave the client-observed timeline byte-identical.
func TestTelemeteredRunIsByteIdenticalToBare(t *testing.T) {
	bare := Run(shortRun(scaling.ConScale, workload.LargeVariations, 1))
	instr := Run(telemeteredShortRun(scaling.ConScale, workload.LargeVariations, 1))

	if bare.Goodput != instr.Goodput || bare.P99 != instr.P99 || bare.ErrorRate != instr.ErrorRate {
		t.Fatalf("instrumented run diverged: goodput %d vs %d, p99 %v vs %v",
			bare.Goodput, instr.Goodput, bare.P99, instr.P99)
	}
	var a, b bytes.Buffer
	if err := WriteTimelineCSV(&a, bare); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelineCSV(&b, instr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("telemetry-enabled timeline CSV differs from bare run")
	}
	if bare.Registry != nil || bare.Scraper != nil || bare.SLO != nil {
		t.Fatal("bare run grew a telemetry layer")
	}
}

// TestTelemeteredRunProducesTimeline checks the scrape timeline is real: it
// accumulated snapshots over the run, parses as exposition text, and covers
// the stack's metric families.
func TestTelemeteredRunProducesTimeline(t *testing.T) {
	var buf bytes.Buffer
	cfg := telemeteredShortRun(scaling.ConScale, workload.LargeVariations, 1)
	cfg.Telemetry.OpenMetrics = &buf
	res := Run(cfg)
	if res.Registry == nil || res.Scraper == nil || res.SLO == nil {
		t.Fatal("telemetry layer missing from result")
	}
	// ShortDuration at the default 5 s cadence.
	if res.Scraper.Scrapes() < 10 {
		t.Fatalf("only %d scrapes", res.Scraper.Scrapes())
	}
	// The timeline went to the sink; the scraper has none to write.
	var again bytes.Buffer
	if err := res.Scraper.WriteOpenMetrics(&again); err == nil || again.Len() != 0 {
		t.Fatalf("WriteOpenMetrics on a streamed run: err %v, %d bytes", err, again.Len())
	}
	fams, err := telemetry.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("scrape timeline failed to parse: %v", err)
	}
	got := map[string]bool{}
	for _, f := range fams {
		got[f.Name] = true
	}
	for _, want := range []string{
		"conscale_server_rt_seconds",
		"conscale_accept_queue_depth",
		"conscale_threads_active",
		"conscale_cpu_utilization",
		"conscale_connpool_in_use",
		"conscale_lb_in_flight",
		"conscale_tier_vms",
		"conscale_scaling_events_total",
		"conscale_sct_qlower",
		"conscale_sct_qupper",
		"conscale_client_rt_seconds",
		"conscale_slo_burn_fast",
	} {
		if !got[want] {
			t.Errorf("timeline missing family %s", want)
		}
	}
	if !strings.HasSuffix(buf.String(), "# EOF\n") {
		t.Fatal("timeline missing # EOF")
	}
	// The client histogram must have seen the run's successful requests.
	if res.SLOTruth == nil {
		t.Fatal("telemetry run kept no SLO ground truth")
	}
	clientRT := res.Registry.Histogram("conscale_client_rt_seconds", "")
	if clientRT.Count() == 0 {
		t.Fatal("client RT histogram empty")
	}
	if int(clientRT.Count()) != res.Goodput {
		t.Fatalf("client RT count %d != goodput %d", clientRT.Count(), res.Goodput)
	}
}
