package experiment

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"conscale/internal/scaling"
	"conscale/internal/workload"
)

// fullWriter accepts n bytes, then fails every write, as a full disk does.
type fullWriter struct{ n int }

func (f *fullWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("no space left")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestArtifactsReportWriteErrors: an artifact returns the first write
// error even where its formatter prints unchecked (the scale timeline,
// tournament and frontier CSV writers drop theirs), and a working writer
// gets the header line.
func TestArtifactsReportWriteErrors(t *testing.T) {
	scale := &ScaleResult{Mode: scaling.ConScale, Clients: 10,
		Timeline: []workload.TimelinePoint{{Time: 1, Users: 10}, {Time: 2, Users: 10}}}
	tournament, err := TournamentStudy(TournamentConfig{Controllers: []string{"ec2"},
		Traces: []string{workload.BigSpike}, Tiers: []int{10}})
	if err != nil {
		t.Fatal(err)
	}
	one := []*RunResult{{}}
	var arts []Artifact
	for _, set := range [][]Artifact{
		foldTable1([]Cell{{Key: workload.BigSpike}, {Key: workload.BigSpike}}, []*RunResult{{}, {}}).Artifacts,
		foldChaos([]Cell{{Key: "crash"}}, one).Artifacts,
		ScaleOutcome([]ScaleRow{{Mode: "conscale"}}, scale).Artifacts,
		tournament.Fold(tournament.Cells, one).Artifacts,
		FrontierOutcome(&FrontierResult{Rows: []FrontierRow{{Trace: workload.BigSpike}}}).Artifacts,
	} {
		arts = append(arts, set...)
	}
	names := map[string]bool{}
	for _, a := range arts {
		names[a.Name] = true
		for _, room := range []int{0, 20} {
			if err := a.Write(&fullWriter{n: room}); err == nil {
				t.Errorf("%s: a write failing after %d bytes was reported written", a.Name, room)
			}
		}
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil || !strings.Contains(buf.String(), "\n") {
			t.Errorf("%s: %v, wrote %q", a.Name, err, buf.String())
		}
	}
	for _, want := range []string{"table1_tail_latency.csv", "chaos_tail_latency.csv", "scale_summary.csv",
		"scale_timeline_conscale_10.csv", "BENCH_7.json", "tournament_summary.csv", "BENCH_6.json",
		"frontier_summary.csv", "BENCH_10.json"} {
		if !names[want] {
			t.Errorf("no artifact named %s", want)
		}
	}
}
