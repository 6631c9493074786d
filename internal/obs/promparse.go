package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// MetricFamily is one parsed Prometheus exposition family: its HELP and
// TYPE metadata plus every sample whose name belongs to it (for
// histograms that includes the _bucket/_sum/_count rows).
type MetricFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Sample is one exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus parses the text exposition format (version 0.0.4) far
// enough to lint it and to reconstruct histogram snapshots from a
// scrape. It returns families keyed by base name in input order via the
// second return.
func ParsePrometheus(r io.Reader) (map[string]*MetricFamily, []string, error) {
	families := map[string]*MetricFamily{}
	var order []string
	get := func(name string) *MetricFamily {
		f, ok := families[name]
		if !ok {
			f = &MetricFamily{Name: name}
			families[name] = f
			order = append(order, name)
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, nil, fmt.Errorf("line %d: HELP without a metric name", lineno)
			}
			f := get(name)
			if f.Help != "" {
				return nil, nil, fmt.Errorf("line %d: duplicate HELP for %s", lineno, name)
			}
			if help == "" {
				return nil, nil, fmt.Errorf("line %d: empty HELP text for %s", lineno, name)
			}
			f.Help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := line[len("# TYPE "):]
			name, typ, _ := strings.Cut(rest, " ")
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, nil, fmt.Errorf("line %d: invalid TYPE %q for %s", lineno, typ, name)
			}
			f := get(name)
			if f.Type != "" {
				return nil, nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineno, name)
			}
			if len(f.Samples) > 0 {
				return nil, nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineno, name)
			}
			f.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal and ignored
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", lineno, err)
		}
		base := familyName(s.Name, families)
		get(base).Samples = append(get(base).Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return families, order, nil
}

// familyName maps a sample name to its family: _bucket/_sum/_count
// suffixes fold into a declared histogram (or summary) family.
func familyName(name string, families map[string]*MetricFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suf)
		if !ok {
			continue
		}
		if f, exists := families[base]; exists && (f.Type == "histogram" || f.Type == "summary") {
			return base
		}
	}
	return name
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: nil}
	rest := line
	// Metric name.
	i := 0
	for i < len(rest) && isNameChar(rest[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	s.Name = rest[:i]
	rest = rest[i:]
	// Optional label set.
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// Value (a trailing timestamp is legal; take the first field).
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected value after metric in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	s.Value = v
	return s, nil
}

func parseValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(f, 64)
}

func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	rest := body
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, fmt.Errorf("label without value")
		}
		key := rest[:eq]
		for i := 0; i < len(key); i++ {
			if !isNameChar(key[i], i == 0) {
				return nil, fmt.Errorf("invalid label name %q", key)
			}
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		val, n, err := unquoteLabel(rest)
		if err != nil {
			return nil, err
		}
		if _, dup := labels[key]; dup {
			return nil, fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val
		rest = rest[n:]
		rest = strings.TrimPrefix(rest, ",")
	}
	return labels, nil
}

// unquoteLabel reads a quoted label value (supporting \" \\ \n escapes)
// and returns the value plus bytes consumed.
func unquoteLabel(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape in label value")
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				return "", 0, fmt.Errorf("bad escape \\%c in label value", s[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

// LintPrometheus parses an exposition body and rejects hygiene
// violations beyond bare syntax: every sample must belong to a family
// declaring both HELP and TYPE, no duplicate sample (name + label set),
// and histogram families must carry monotone cumulative buckets ending
// in +Inf with matching _count and a _sum row.
func LintPrometheus(r io.Reader) error {
	families, order, err := ParsePrometheus(r)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, name := range order {
		f := families[name]
		if len(f.Samples) == 0 {
			return fmt.Errorf("family %s: HELP/TYPE declared but no samples", name)
		}
		if f.Help == "" {
			return fmt.Errorf("family %s: missing HELP", name)
		}
		if f.Type == "" {
			return fmt.Errorf("family %s: missing TYPE", name)
		}
		for _, s := range f.Samples {
			key := s.Name + "{" + labelKey(s.Labels) + "}"
			if seen[key] {
				return fmt.Errorf("duplicate sample %s", key)
			}
			seen[key] = true
		}
		if f.Type == "histogram" {
			if err := lintHistogram(f); err != nil {
				return fmt.Errorf("family %s: %v", name, err)
			}
		}
	}
	return nil
}

func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		parts = append(parts, k+"="+v)
	}
	// Insertion order of a map range is random; sort for a stable key.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

func lintHistogram(f *MetricFamily) error {
	var buckets []Sample
	var haveSum, haveCount bool
	var count float64
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			buckets = append(buckets, s)
		case f.Name + "_sum":
			haveSum = true
		case f.Name + "_count":
			haveCount = true
			count = s.Value
		default:
			return fmt.Errorf("unexpected sample %s in histogram", s.Name)
		}
	}
	if !haveSum || !haveCount {
		return fmt.Errorf("missing _sum or _count")
	}
	if len(buckets) == 0 {
		return fmt.Errorf("no buckets")
	}
	prev := math.Inf(-1)
	prevCum := 0.0
	var sawInf bool
	for _, b := range buckets {
		le, ok := b.Labels["le"]
		if !ok {
			return fmt.Errorf("bucket without le label")
		}
		bound, err := parseValue(le)
		if err != nil {
			return fmt.Errorf("bad le %q", le)
		}
		if bound <= prev {
			return fmt.Errorf("bucket bounds not ascending at le=%q", le)
		}
		if b.Value < prevCum {
			return fmt.Errorf("bucket counts not cumulative at le=%q", le)
		}
		prev, prevCum = bound, b.Value
		if math.IsInf(bound, 1) {
			sawInf = true
		}
	}
	if !sawInf {
		return fmt.Errorf("missing +Inf bucket")
	}
	if prevCum != count {
		return fmt.Errorf("+Inf bucket %g != _count %g", prevCum, count)
	}
	return nil
}

// SnapshotFromFamily reconstructs a HistogramSnapshot from a scraped
// histogram family, so a /metrics scrape can be read back into
// quantiles (the exposition tests check the latency histograms
// observed traffic this way).
func SnapshotFromFamily(f *MetricFamily) (HistogramSnapshot, error) {
	if f.Type != "histogram" {
		return HistogramSnapshot{}, fmt.Errorf("family %s is %q, not histogram", f.Name, f.Type)
	}
	var snap HistogramSnapshot
	var cum []float64
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			bound, err := parseValue(s.Labels["le"])
			if err != nil {
				return HistogramSnapshot{}, fmt.Errorf("family %s: bad le %q", f.Name, s.Labels["le"])
			}
			if !math.IsInf(bound, 1) {
				snap.Bounds = append(snap.Bounds, bound)
			}
			cum = append(cum, s.Value)
		case f.Name + "_sum":
			snap.Sum = s.Value
		}
	}
	if len(cum) == 0 {
		return HistogramSnapshot{}, fmt.Errorf("family %s: no buckets", f.Name)
	}
	snap.Counts = make([]uint64, len(cum))
	prev := 0.0
	for i, c := range cum {
		snap.Counts[i] = uint64(c - prev)
		snap.Count += snap.Counts[i]
		prev = c
	}
	return snap, nil
}
