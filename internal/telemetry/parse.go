package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromSample is one parsed exposition sample line.
type PromSample struct {
	Name   string
	Labels string // canonical `{k="v",...}` form, "" when unlabelled
	Value  float64
	TS     int64
	HasTS  bool
}

// PromFamily is one parsed metric family: its metadata plus every sample
// whose base name belongs to it (histogram _bucket/_sum/_count lines fold
// into their parent family).
type PromFamily struct {
	Name, Help, Type string
	Samples          []PromSample
}

// ParseProm parses the Prometheus text exposition format (version 0.0.4,
// plus the OpenMetrics # EOF terminator) strictly enough to round-trip the
// package's own output: unknown comment lines are skipped, malformed sample
// or label syntax is an error, and histogram suffixes attach to the family
// declared by their # TYPE line. It exists so tests — including the live
// /metrics endpoint's — can verify the exposition is well-formed without an
// external Prometheus dependency.
func ParseProm(r io.Reader) ([]PromFamily, error) {
	var (
		fams   []PromFamily
		byName = map[string]*PromFamily{}
	)
	fam := func(name string) *PromFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		fams = append(fams, PromFamily{Name: name})
		f := &fams[len(fams)-1]
		byName[name] = f
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "# EOF":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			f := fam(rest[0])
			if len(rest) == 2 {
				f.Help = rest[1]
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(rest) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE", lineNo)
			}
			switch rest[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", lineNo, rest[1])
			}
			fam(rest[0]).Type = rest[1]
		case strings.HasPrefix(line, "#"):
			continue // other comments are legal and ignored
		default:
			s, err := parsePromSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			base := s.Name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(s.Name, suf)
				if trimmed != s.Name {
					if f, ok := byName[trimmed]; ok && f.Type == "histogram" {
						base = trimmed
					}
					break
				}
			}
			f := fam(base)
			f.Samples = append(f.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// parsePromSample parses `name{labels} value [timestamp]`.
func parsePromSample(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		canon, err := canonLabels(rest[i+1 : j])
		if err != nil {
			return s, err
		}
		s.Labels = canon
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return s, fmt.Errorf("missing value in %q", line)
		}
		s.Name = fields[0]
		rest = strings.TrimSpace(fields[1])
	}
	if s.Name == "" || !validMetricName(s.Name) {
		return s, fmt.Errorf("bad metric name in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want `value [timestamp]`, got %q", rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		ts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return s, fmt.Errorf("bad timestamp %q: %w", fields[1], err)
		}
		s.TS, s.HasTS = ts, true
	}
	return s, nil
}

// canonLabels validates `k="v",...` and re-renders it sorted by key.
func canonLabels(in string) (string, error) {
	if strings.TrimSpace(in) == "" {
		return "", nil
	}
	var pairs []string // key, value, key, value, ...
	rest := in
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 1 {
			return "", fmt.Errorf("bad label pair in %q", in)
		}
		k := strings.TrimSpace(rest[:eq])
		if !validLabelName(k) {
			return "", fmt.Errorf("bad label name %q", k)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return "", fmt.Errorf("unquoted label value in %q", in)
		}
		rest = rest[1:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return "", fmt.Errorf("unterminated label value in %q", in)
		}
		pairs = append(pairs, k, b.String())
		rest = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		rest = strings.TrimSpace(rest)
	}
	return labelKey(pairs), nil
}

func validMetricName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func validLabelName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}
