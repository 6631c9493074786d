package obs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Counter is a cumulative count a Registry renders; the embedded atomic
// supplies Add and Load.
type Counter struct{ atomic.Uint64 }

// Registry is an ordered set of metric families rendered by one writer
// in Prometheus text exposition format. Families are registered once, at
// construction, each with its name, help, kind and storage together;
// Write renders them in registration order. Registration is not safe
// for concurrent use; Write is, alongside any number of writers to the
// registered counters and histograms.
type Registry struct {
	fams []family
}

// family is one registered metric family. A scalar or fixed-label
// family reads one value per sample; a histogram family reads its
// histogram.
type family struct {
	name, help, kind string
	label            string   // label name of a fixed-label family, else ""
	labelValues      []string // one per sample, parallel to values
	values           []func() uint64
	hist             *Histogram
}

// Counter registers an unlabeled counter family stored in the returned
// Counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.Func(name, help, "counter", c.Load)
	return c
}

// Func registers an unlabeled counter or gauge (kind) family whose value
// is owned elsewhere: read is called once per Write.
func (r *Registry) Func(name, help, kind string, read func() uint64) {
	r.fams = append(r.fams, family{name: name, help: help, kind: kind, values: []func() uint64{read}})
}

// Counters registers a counter family over one label with a fixed value
// set, rendered in the given order. It returns one Counter per value,
// in the same order.
func (r *Registry) Counters(name, help, label string, values ...string) []*Counter {
	f := family{name: name, help: help, kind: "counter", label: label, labelValues: values}
	out := make([]*Counter, len(values))
	for i := range out {
		out[i] = new(Counter)
		f.values = append(f.values, out[i].Load)
	}
	r.fams = append(r.fams, f)
	return out
}

// Histogram registers a histogram family over the given ascending bucket
// upper bounds and returns the histogram to observe into.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.fams = append(r.fams, family{name: name, help: help, kind: "histogram", hist: h})
	return h
}

// Write renders every family in registration order: HELP and TYPE lines,
// then its samples.
func (r *Registry) Write(w io.Writer) error {
	for _, f := range r.fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		if f.hist != nil {
			if err := f.hist.Snapshot().write(w, f.name); err != nil {
				return err
			}
			continue
		}
		for i, read := range f.values {
			var err error
			if f.label == "" {
				_, err = fmt.Fprintf(w, "%s %d\n", f.name, read())
			} else {
				_, err = fmt.Fprintf(w, "%s{%s=%q} %d\n", f.name, f.label, f.labelValues[i], read())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
