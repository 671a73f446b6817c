package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// spanKind names one layer boundary the traced assembly crosses. The
// set is fixed, so the recorder indexes aggregates by kind and the hot
// path hashes no strings.
type spanKind uint8

const (
	spanDesRun spanKind = iota
	spanClusterSubmit
	spanWorkloadComplete
	spanTelemetryObserve
	spanForensicsObserve
	spanForensicsTick
	spanTwinObserve
	spanTwinTick
	spanTraceOnEnd
	spanSampler
	numSpanKinds
)

// spanNames are the per-layer metric prefixes, module name first.
var spanNames = [numSpanKinds]string{
	spanDesRun:           "des.run",
	spanClusterSubmit:    "cluster.submit",
	spanWorkloadComplete: "workload.complete",
	spanTelemetryObserve: "telemetry.observe",
	spanForensicsObserve: "forensics.observe",
	spanForensicsTick:    "forensics.tick",
	spanTwinObserve:      "twin.observe",
	spanTwinTick:         "twin.tick",
	spanTraceOnEnd:       "trace.on_end",
	spanSampler:          "experiment.sampler",
}

// perRequest reports whether spans of the kind belong to one request and
// are therefore kept only for the 1-in-64 id sample. Tick and des.run
// spans are always kept, and so are trace.on_end spans: the tracer's own
// head sampling already thins them to 1 in 64.
func (k spanKind) perRequest() bool {
	switch k {
	case spanDesRun, spanForensicsTick, spanTwinTick, spanSampler, spanTraceOnEnd:
		return false
	}
	return true
}

// keepEvery is the request-id sampling stride of full span records.
const keepEvery = 64

// spanAgg is the per-name aggregate kept for every span.
type spanAgg struct {
	Count   int64
	TotalNS int64
	SelfNS  int64
}

// spanRecord is one fully kept span: name, start, end, the span that
// caused it (the enclosing span's kind and id), and the request's
// sequence number as id (0 for spans outside any request).
type spanRecord struct {
	Kind       spanKind
	ID         uint64
	Start, End int64 // ns since the recorder started
	Parent     spanKind
	ParentID   uint64
	Root       bool
}

type frame struct {
	kind  spanKind
	id    uint64
	start int64
	// cover is the length of the union of the child intervals seen so
	// far; coverEnd the latest child end. Children arrive in start order
	// (stack discipline), which makes the running union exact.
	cover, coverEnd int64
}

// recorder is the in-memory span buffer of the -trace pass. Everything
// is host time. Open/Close bracket a call that crosses a layer boundary;
// aggregates are kept for every span and full records for the sample.
type recorder struct {
	clock func() int64
	stack []frame
	agg   [numSpanKinds]spanAgg
	kept  []spanRecord
}

func newRecorder() *recorder {
	t0 := time.Now()
	return &recorder{
		clock: func() int64 { return int64(time.Since(t0)) },
		stack: make([]frame, 0, 16),
	}
}

// open starts a span of the kind for request id (0 = no request).
func (r *recorder) open(kind spanKind, id uint64) {
	r.stack = append(r.stack, frame{kind: kind, id: id, start: r.clock()})
}

// close ends the innermost open span.
func (r *recorder) close() {
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.finish(f.kind, f.id, f.start, r.clock(), f.cover)
}

// add records a completed span [start, end) with no children of its own
// as a child of the innermost open span. Children must be added in start
// order; they may overlap each other.
func (r *recorder) add(kind spanKind, id uint64, start, end int64) {
	r.finish(kind, id, start, end, 0)
}

func (r *recorder) finish(kind spanKind, id uint64, start, end, cover int64) {
	dur := end - start
	a := &r.agg[kind]
	a.Count++
	a.TotalNS += dur
	a.SelfNS += dur - cover

	rec := spanRecord{Kind: kind, ID: id, Start: start, End: end, Root: true}
	if n := len(r.stack); n > 0 {
		p := &r.stack[n-1]
		// Fold [start, end) into the parent's running union of child
		// intervals, counting only the part not already covered.
		s := start
		if s < p.coverEnd {
			s = p.coverEnd
		}
		if end > s {
			p.cover += end - s
			p.coverEnd = end
		}
		rec.Parent, rec.ParentID, rec.Root = p.kind, p.id, false
	}
	if !kind.perRequest() || (id != 0 && id%keepEvery == 0) {
		r.kept = append(r.kept, rec)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans as Chrome trace-event JSON, one
// event per line so the file diffs and greps.
func (r *recorder) writeChrome(w io.Writer, meta map[string]any) error {
	bw := bufio.NewWriter(w)
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[\n", mb)
	for i, s := range r.kept {
		args := map[string]any{"id": s.ID}
		if !s.Root {
			args["parent"] = spanNames[s.Parent]
			args["parent_id"] = s.ParentID
		}
		b, err := json.Marshal(chromeEvent{
			Name: spanNames[s.Kind],
			Cat:  "bench",
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  1,
			TID:  1,
			Args: args,
		})
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.Write(b)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
