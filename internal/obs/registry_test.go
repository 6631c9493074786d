package obs

import (
	"bytes"
	"errors"
	"testing"
)

// TestRegistryWrite pins the exact exposition of each family kind, in
// registration order, and holds it to the lint.
func TestRegistryWrite(t *testing.T) {
	var r Registry
	c := r.Counter("x_total", "things counted")
	r.Func("x_entries", "things held", "gauge", func() uint64 { return 7 })
	classes := r.Counters("x_class_total", "things by class", "class", "a", "b")
	h := r.Histogram("x_seconds", "thing latency", []float64{0.1, 1})

	c.Add(3)
	classes[1].Add(2)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	const want = `# HELP x_total things counted
# TYPE x_total counter
x_total 3
# HELP x_entries things held
# TYPE x_entries gauge
x_entries 7
# HELP x_class_total things by class
# TYPE x_class_total counter
x_class_total{class="a"} 0
x_class_total{class="b"} 2
# HELP x_seconds thing latency
# TYPE x_seconds histogram
x_seconds_bucket{le="0.1"} 1
x_seconds_bucket{le="1"} 2
x_seconds_bucket{le="+Inf"} 3
x_seconds_sum 5.55
x_seconds_count 3
`
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("registry rendered\n%s\nwant\n%s", buf.String(), want)
	}
	if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("registry output fails lint: %v", err)
	}
}

// failAt counts writes and fails the one numbered at (from 0).
type failAt struct{ at, n int }

func (f *failAt) Write(p []byte) (int, error) {
	f.n++
	if f.n-1 == f.at {
		return 0, errors.New("closed")
	}
	return len(p), nil
}

// TestRegistryWriteError: whichever write fails — a header, a scalar, a
// labeled or a histogram sample — Write returns the error.
func TestRegistryWriteError(t *testing.T) {
	var r Registry
	r.Counter("c_total", "c")
	r.Counters("l_total", "l", "k", "v")
	r.Histogram("h_seconds", "h", []float64{1})
	count := &failAt{at: -1}
	if err := r.Write(count); err != nil {
		t.Fatal(err)
	}
	for at := 0; at < count.n; at++ {
		if err := r.Write(&failAt{at: at}); err == nil {
			t.Fatalf("Write swallowed the error of write %d of %d", at, count.n)
		}
	}
}
