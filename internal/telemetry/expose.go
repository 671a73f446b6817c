package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4): one # HELP / # TYPE block per family followed by its
// sample lines, histograms as cumulative le-buckets (non-empty buckets
// only, +Inf always) plus _sum and _count. Output order is deterministic:
// families in registration order, static series in registration order, then
// collector emissions. A disabled registry renders nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.writeText(bw, 0, false, true)
	return bw.Flush()
}

// writeText is the shared renderer. withTS appends the given millisecond
// timestamp to every sample line (the scrape-timeline form); withMeta
// controls the HELP/TYPE header lines. Numbers are appended straight into
// the writer's buffer, names and labels written piecewise, so rendering
// builds no string per sample; the caller flushes.
func (r *Registry) writeText(bw *bufio.Writer, tsMillis int64, withTS, withMeta bool) {
	if r == nil || !r.enabled.Load() {
		return
	}
	x := expositor{bw: bw, ts: tsMillis, withTS: withTS}
	r.mu.RLock()
	defer r.mu.RUnlock()
	// One emit closure serves every collector of every family: it reads
	// the family being rendered from x.
	emit := func(value float64, labels ...string) {
		bw.WriteString(x.name)
		bw.Write(appendLabels(bw.AvailableBuffer(), labels))
		x.value(value)
	}
	for _, f := range r.fams {
		if withMeta {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(f.help)
			bw.WriteByte('\n')
			bw.WriteString("# TYPE ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(f.kind.String())
			bw.WriteByte('\n')
		}
		x.name = f.name
		for _, s := range f.series {
			switch {
			case s.fn != nil:
				x.sample("", s.labels, s.fn())
			case s.ctr != nil:
				x.sample("", s.labels, float64(s.ctr.Value()))
			case s.gauge != nil:
				x.sample("", s.labels, s.gauge.Value())
			case s.hist != nil:
				x.histogram(s.labels, s.hist)
			}
		}
		for _, coll := range f.collectors {
			coll(emit)
		}
	}
}

// expositor renders sample lines of one exposition pass.
type expositor struct {
	bw     *bufio.Writer
	name   string // family being rendered
	ts     int64
	withTS bool
}

// sample writes one `name+suffix labels value [ts]` line of the family.
func (x *expositor) sample(suffix, labels string, value float64) {
	x.bw.WriteString(x.name)
	x.bw.WriteString(suffix)
	x.bw.WriteString(labels)
	x.value(value)
}

// float appends v in the shortest representation that round-trips (what
// Prometheus expects), straight into the writer's buffer.
func (x *expositor) float(v float64) {
	x.bw.Write(strconv.AppendFloat(x.bw.AvailableBuffer(), v, 'g', -1, 64))
}

// value finishes a sample line: the separator, the value, the timestamp,
// the newline.
func (x *expositor) value(v float64) {
	x.bw.WriteByte(' ')
	x.float(v)
	if x.withTS {
		x.bw.WriteByte(' ')
		x.bw.Write(strconv.AppendInt(x.bw.AvailableBuffer(), x.ts, 10))
	}
	x.bw.WriteByte('\n')
}

// histogram renders the cumulative bucket form. Only non-empty buckets
// get a line (the full 450-bucket layout would drown the exposition), plus
// the mandatory +Inf bucket; cumulative counts keep the output a valid
// Prometheus histogram regardless of which buckets are elided.
func (x *expositor) histogram(labels string, h *Histogram) {
	buckets, count, sum := h.snapshot()
	var cum uint64
	for i, n := range buckets {
		cum += n
		if n == 0 || i == histBuckets-1 {
			continue
		}
		x.bucket(labels, bucketUpper(i), float64(cum))
	}
	x.bucket(labels, math.Inf(1), float64(count))
	x.sample("_sum", labels, sum)
	x.sample("_count", labels, float64(count))
}

// bucket writes one `name_bucket{labels,le="upper"} value` line, the le
// pair appended to the series' pre-rendered label set. A float's digits
// need no label escaping.
func (x *expositor) bucket(labels string, upper, value float64) {
	x.bw.WriteString(x.name)
	x.bw.WriteString("_bucket{")
	if labels != "" {
		x.bw.WriteString(labels[1 : len(labels)-1])
		x.bw.WriteByte(',')
	}
	x.bw.WriteString(`le="`)
	x.float(upper)
	x.bw.WriteString(`"}`)
	x.value(value)
}
