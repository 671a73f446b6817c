package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// check is one correctness check of a run. A failed check fails the
// command unless Warn is set.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Warn bool   `json:"warn,omitempty"`
	Note string `json:"note,omitempty"`
}

func passed(checks []check) bool {
	for _, c := range checks {
		if !c.OK && !c.Warn {
			return false
		}
	}
	return true
}

// checkLedger verifies request conservation: issued = goodput + errors
// (sheds included) + in flight at stop. inFlight < 0 means the entry
// point gave no independent in-flight count, and o.Issued == 0 that it
// reports completions only; the identities that need the missing side
// are skipped.
func checkLedger(o outcome, inFlight int64) error {
	switch {
	case o.OK < 0 || o.Errors < 0 || o.Sheds < 0 || o.Issued < 0:
		return fmt.Errorf("negative count in ledger %+v", o)
	case o.resolved() == 0:
		return fmt.Errorf("no request was resolved")
	case o.Sheds > o.Errors:
		return fmt.Errorf("%d sheds exceed %d failed requests", o.Sheds, o.Errors)
	case o.Issued == 0:
		return nil
	case o.Issued < o.resolved():
		return fmt.Errorf("%d issued < %d ok + %d failed", o.Issued, o.OK, o.Errors)
	case inFlight >= 0 && o.Issued != o.resolved()+inFlight:
		return fmt.Errorf("%d issued != %d ok + %d failed + %d in flight", o.Issued, o.OK, o.Errors, inFlight)
	}
	return nil
}

// ledgerCheck wraps checkLedger as a check.
func ledgerCheck(name string, o outcome, inFlight int64) check {
	if err := checkLedger(o, inFlight); err != nil {
		return check{Name: name, Note: err.Error()}
	}
	return check{Name: name, OK: true}
}

// identicalCheck verifies that every outcome equals the first: the sim_
// metrics and the timeline hash of a fixed seed must repeat exactly.
func identicalCheck(name string, outs []outcome) check {
	for i, o := range outs[1:] {
		if o != outs[0] {
			return check{Name: name, Note: fmt.Sprintf("run %d differs from run 0: %+v vs %+v", i+1, o, outs[0])}
		}
	}
	return check{Name: name, OK: true, Note: fmt.Sprintf("%d runs", len(outs))}
}

// hashCheck verifies two timeline hashes are equal.
func hashCheck(name, got, want string) check {
	if got != want {
		return check{Name: name, Note: fmt.Sprintf("timeline sha256 %s != %s", got, want)}
	}
	return check{Name: name, OK: true}
}

// finiteCheck verifies every metric value is a finite number.
func finiteCheck(metrics map[string]value) check {
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return check{Name: "metrics_finite", Note: name + " is not finite"}
		}
	}
	return check{Name: "metrics_finite", OK: true}
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the committed timeline hashes of one seed. A mismatch is
// a warning, not a failure: a change of simulated behaviour is legitimate
// when it is the point of the change, and then regenerates this file.
type golden struct {
	Seed   uint64            `json:"seed"`
	Hashes map[string]string `json:"timeline_sha256"`
}

func loadGolden() golden {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench/golden.json: %v", err)) // an embedded file: malformed is a bug
	}
	return g
}

// goldenCheck compares a workload's hash with the golden one. The float
// is the experiment.trajectory_matches_golden metric: 1 match, 0
// mismatch, -1 when the golden file has no entry for this seed.
func goldenCheck(workload string, seed uint64, hash string) (check, float64) {
	g := loadGolden()
	want, ok := g.Hashes[workload]
	if seed != g.Seed || !ok {
		return check{Name: "matches_golden", OK: true, Note: fmt.Sprintf("no golden hash for seed %d", seed)}, -1
	}
	if hash != want {
		return check{Name: "matches_golden", Warn: true,
			Note: fmt.Sprintf("timeline sha256 %s differs from golden %s: simulated behaviour changed", hash, want)}, 0
	}
	return check{Name: "matches_golden", OK: true}, 1
}
