package experiment

import (
	"fmt"
	"io"

	"conscale/internal/des"
	"conscale/internal/forensics"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// WriteTwinCSV writes the run's analytical-twin sample series
// (predicted vs observed, residuals, applicability) as CSV. Errors when
// the run was not twin-armed.
func WriteTwinCSV(w io.Writer, r *RunResult) error {
	if r.Twin == nil {
		return fmt.Errorf("experiment: run has no twin (RunConfig.Twin was nil)")
	}
	return twin.WriteCSV(w, r.Twin.Samples())
}

// TwinStudy is one fully armed steady cell (EC2 on the constant trace,
// 2 500 users, 300 s). It writes the twin sample series as
// hypothesis_twin_timeline.csv and, as hypothesis_twin_perfetto.json,
// the slowest traced requests with the twin annotation track.
func TwinStudy(seed uint64) Study {
	rc := DefaultRunConfig(scaling.EC2, workload.Constant)
	rc.MaxUsers = 2500
	rc.Duration = 300 * des.Second
	rc.Seed = seed
	rc.Tracing = &trace.Config{}
	rc.Forensics = &forensics.Config{}
	rc.Twin = &twin.Config{}
	return Study{Cells: []Cell{{Key: "ec2", Config: rc}}, Fold: foldTwin}
}

func foldTwin(_ []Cell, results []*RunResult) Outcome {
	res := results[0]
	doc := trace.BuildChromeTrace(res.Tracer.Slowest(), res.Audit)
	twin.AppendChrome(&doc, res.Twin.Samples(), res.Twin.Drifts())
	return Outcome{Artifacts: []Artifact{
		{"hypothesis_twin_timeline.csv", func(w io.Writer) error { return WriteTwinCSV(w, res) }},
		jsonArtifact("hypothesis_twin_perfetto.json", &doc),
	}}
}
