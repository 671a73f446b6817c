package experiment

import (
	"bytes"
	"strings"
	"testing"

	"conscale/internal/des"
	"conscale/internal/workload"
)

// smokeTournament runs a two-controller, one-trace, one-tier factorial —
// the smallest tournament that still exercises ranking.
func smokeTournament(t *testing.T) *TournamentResult {
	t.Helper()
	cfg := TournamentConfig{
		Controllers: []string{"ec2", "target-tracking"},
		Traces:      []string{workload.BigSpike},
		Tiers:       []int{1500},
		Duration:    120 * des.Second,
		Seed:        3,
	}
	s, err := TournamentStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tournamentResult(cfg.Controllers, s.Cells, s.Run(nil))
}

func TestTournamentParallelMatchesSequential(t *testing.T) {
	var seq, par *TournamentResult
	withWorkers(1, func() { seq = smokeTournament(t) })
	withWorkers(4, func() { par = smokeTournament(t) })
	var a, b bytes.Buffer
	writeTournamentCSV(&a, seq)
	writeTournamentCSV(&b, par)
	if a.String() != b.String() {
		t.Fatalf("parallel tournament diverged from sequential:\n--- seq\n%s--- par\n%s", a.String(), b.String())
	}
}

func TestTournamentReportShape(t *testing.T) {
	res := smokeTournament(t)
	if len(res.Cells) != 2 {
		t.Fatalf("want 2 cells, got %d", len(res.Cells))
	}
	if len(res.Ranking) != 2 {
		t.Fatalf("want 2 ranked controllers, got %d", len(res.Ranking))
	}
	for _, c := range res.Cells {
		if c.P99Ms <= 0 || c.Goodput == 0 || c.VMHours <= 0 {
			t.Fatalf("cell %s/%s has empty metrics: %+v", c.Controller, c.Trace, c)
		}
		if c.Actions > 0 && c.AuditEvents == 0 {
			t.Fatalf("cell %s/%s logged %d actions but no audit events — decisions bypassed the trail",
				c.Controller, c.Trace, c.Actions)
		}
	}
	for _, r := range res.Ranking {
		if r.P99Rank < 1 || r.BurnRank < 1 || r.VMRank < 1 {
			t.Fatalf("unassigned rank: %+v", r)
		}
		if r.Score != r.P99Rank+r.BurnRank+r.VMRank {
			t.Fatalf("score is not the rank sum: %+v", r)
		}
	}

	var buf bytes.Buffer
	if err := writeTournamentReport(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": "conscale-bench/6"`) {
		t.Fatalf("report missing schema tag:\n%s", buf.String()[:200])
	}
}

func TestAssignRanksSharesExactTies(t *testing.T) {
	ranks := []TournamentRank{
		{Controller: "a", MeanP99Ms: 10},
		{Controller: "b", MeanP99Ms: 10},
		{Controller: "c", MeanP99Ms: 20},
	}
	assignRanks(ranks, func(r TournamentRank) float64 { return r.MeanP99Ms },
		func(r *TournamentRank, v int) { r.P99Rank = v })
	if ranks[0].P99Rank != 1 || ranks[1].P99Rank != 1 {
		t.Fatalf("exact ties must share rank 1: %+v", ranks)
	}
	if ranks[2].P99Rank != 3 {
		t.Fatalf("competition ranking should skip to 3 after a two-way tie: %+v", ranks)
	}
}
