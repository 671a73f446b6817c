package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/forensics"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/workload"
)

// TestForensicsRunByteIdentical is the acceptance-criterion test: arming
// the flight recorder + episode detector must leave the simulated
// trajectory bit-identical to a bare run. The forensics layer only
// reads — extra read-only tickers do not perturb the event order.
func TestForensicsRunByteIdentical(t *testing.T) {
	bare := Run(shortRun(scaling.ConScale, workload.BigSpike, 3))

	cfg := shortRun(scaling.ConScale, workload.BigSpike, 3)
	cfg.Tracing = &trace.Config{SampleRate: 1.0 / 8}
	cfg.Forensics = &forensics.Config{}
	armed := Run(cfg)

	var a, b bytes.Buffer
	if err := WriteTimelineCSV(&a, bare); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelineCSV(&b, armed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("arming forensics changed the timeline CSV")
	}
	if !reflect.DeepEqual(bare.VMs, armed.VMs) {
		t.Fatal("arming forensics changed the VM series")
	}
	if armed.Forensics == nil {
		t.Fatal("armed run has no forensics handle")
	}
	sn, _, _, _, _ := armed.Forensics.Rec.Counts()
	if sn == 0 {
		t.Fatal("recorder captured no snapshots")
	}
}

// TestEpisodesExperimentSmoke runs one small chaos-armed cell end to end
// and checks the pipeline detects the injected fluctuation and grades
// attribution against the known schedule.
func TestEpisodesExperimentSmoke(t *testing.T) {
	s, err := EpisodesStudy(EpisodesConfig{
		Controllers: []string{"ec2"},
		Traces:      []string{workload.BigSpike},
		Users:       5000,
		Duration:    ShortDuration,
		Seed:        1,
		Chaos:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cells []EpisodeCell
	for _, res := range s.Run(nil) {
		cells = append(cells, EvaluateEpisodes(res))
	}
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	c := cells[0]
	if c.Controller != "ec2" || c.Trace != workload.BigSpike {
		t.Fatalf("cell mislabelled: %+v", c)
	}
	if c.Report == nil {
		t.Fatal("cell has no attribution report")
	}
	if c.Episodes == 0 {
		t.Fatal("chaos-armed EC2 cell detected no episodes (whole-tier 2.5x interference should breach)")
	}
	if len(c.Res.FaultWindows) == 0 {
		t.Fatal("no fault windows recorded")
	}
	if c.FaultOverlapped == 0 {
		t.Fatal("no episode overlapped an injected fault")
	}

	var tbl, rank strings.Builder
	renderEpisodes(&tbl, cells)
	if !strings.Contains(tbl.String(), "fault attribution:") {
		t.Fatalf("table missing attribution line:\n%s", tbl.String())
	}
	ranks := rankEpisodes(cells)
	if len(ranks) != 1 || ranks[0].Controller != "ec2" {
		t.Fatalf("ranking wrong: %+v", ranks)
	}
	renderEpisodeRanking(&rank, ranks)
	if !strings.Contains(rank.String(), "ec2") {
		t.Fatalf("ranking table missing controller:\n%s", rank.String())
	}
}

// TestEpisodesChaosWellSeparated pins the schedule invariant the
// attribution grading relies on: consecutive faults are spaced more
// than a default FaultLag apart so no episode has two plausible causes.
func TestEpisodesChaosWellSeparated(t *testing.T) {
	dur := 720 * des.Second
	s := EpisodesChaos(dur)
	faults := s.Faults()
	if len(faults) != 3 {
		t.Fatalf("faults = %d, want 3", len(faults))
	}
	gapFloor := 30 * des.Second // default Config.FaultLag
	for i := 1; i < len(faults); i++ {
		prevEnd := faults[i-1].At + faults[i-1].Duration
		if faults[i].At <= prevEnd+gapFloor {
			t.Fatalf("fault %d at %v starts within FaultLag of fault %d ending %v",
				i, faults[i].At, i-1, prevEnd)
		}
	}
}
