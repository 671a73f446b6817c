package experiment

import (
	"encoding/json"
	"io"
	"strings"
)

// Artifact is one results file of an experiment: its name under the
// output directory and the function that writes its bytes. This package
// owns every artifact's name and format; a caller decides only where
// the bytes go (cmd/experiments writes each one to a file under -out).
type Artifact struct {
	Name  string
	Write func(w io.Writer) error
}

// ErrWriter passes writes through to W until the first error, then
// keeps it in Err and drops every later write, so a formatter can print
// line after line unchecked and report once. cmd/experiments builds its
// output files on it.
type ErrWriter struct {
	W   io.Writer
	Err error
}

func (e *ErrWriter) Write(p []byte) (n int, err error) {
	if e.Err == nil {
		n, e.Err = e.W.Write(p)
	}
	return n, e.Err
}

// sticky turns a formatter that ignores write errors into an Artifact's
// Write, which returns the first one.
func sticky(write func(w io.Writer)) func(io.Writer) error {
	return func(w io.Writer) error {
		ew := &ErrWriter{W: w}
		write(ew)
		return ew.Err
	}
}

// jsonArtifact is v encoded as one line of JSON.
func jsonArtifact(name string, v any) Artifact {
	return Artifact{name, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) }}
}

// timelineArtifact is a run's per-second series as WriteTimelineCSV
// writes it.
func timelineArtifact(name string, r *RunResult) Artifact {
	return Artifact{name, func(w io.Writer) error { return WriteTimelineCSV(w, r) }}
}

// sweepArtifact is a profiling sweep as writeSweepCSV writes it.
func sweepArtifact(name string, s SweepResult) Artifact {
	return Artifact{name, func(w io.Writer) error { return writeSweepCSV(w, s) }}
}

// sanitize turns a label into a file-name fragment: lower case, spaces
// to underscores, slashes to dashes, and no colons or parentheses.
func sanitize(label string) string {
	return strings.NewReplacer(":", "", " ", "_", "(", "", ")", "", "/", "-").
		Replace(strings.ToLower(label))
}
