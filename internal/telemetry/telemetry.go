// Package telemetry is a zero-dependency metrics subsystem for the serving
// stack: lock-free sharded counters, gauges computed at scrape time, fixed
// log-spaced-bucket histograms with quantile estimation, their sliding-window
// views and the SLO engine built on them (windowed.go, slo.go),
// a hand-rolled Prometheus text-format encoder (prometheus.go), and a
// bounded ring-buffer slow-query log (slowlog.go).
//
// A Registry holds metric families keyed by name. Registration is
// get-or-create: registering the same (name, kind, label names, buckets)
// again returns the existing family, so independent layers (the engine
// facade, the HTTP server, the CLI) can share one Registry without
// coordinating construction order. Conflicting re-registration — same name,
// different shape — panics: it is a programming error that would corrupt
// the exposition.
//
// The hot path (Counter.Add, Histogram.Observe) takes no locks;
// only registration and scraping (Gather, WritePrometheus) synchronize.
package telemetry

import (
	"fmt"
	"slices"
	"sync"
)

// Kind is the metric type of a family.
type Kind uint8

// The metric kinds, matching the Prometheus TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name=value pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// series is one labeled member of a family: a counter, a histogram, or a
// scrape-time callback (every gauge, and the counters of CounterFunc).
type series struct {
	labels  []Label
	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// family is one named metric with a fixed kind and label-name schema.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram upper bounds; nil otherwise

	mu     sync.Mutex
	order  []string // series keys in first-registration order
	series map[string]*series
}

// Registry holds metric families in registration order.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns the named family, creating it on first registration and
// panicking when the requested shape conflicts with the existing one.
func (r *Registry) family(name, help string, kind Kind, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !slices.Equal(f.labelNames, labelNames) || !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: conflicting registration of metric %q", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: slices.Clone(labelNames),
		buckets:    slices.Clone(buckets),
		series:     make(map[string]*series),
	}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

// seriesKey joins label values into a map key. 0xff cannot appear in valid
// UTF-8 label values, so the join is unambiguous.
func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, v...)
	}
	return string(b)
}

// get returns the series for the given label values, creating it on first
// use. The family mutex protects only this lookup; the returned metric is
// then operated on lock-free.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: make([]Label, len(values))}
	for i, v := range values {
		s.labels[i] = Label{Name: f.labelNames[i], Value: v}
	}
	switch f.kind {
	case KindCounter:
		s.counter = newCounter()
	case KindHistogram:
		s.hist = newHistogram(f.buckets)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a counter family with the given label
// names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, labelNames, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).counter }

// GaugeFunc registers a gauge series whose value is computed by fn at every
// scrape — the one gauge kind: every gauge reads a value the process
// already tracks elsewhere (live point counts, store generations, derived
// ratios). Re-registering the same name and labels replaces the callback
// (last registration wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.funcSeries(name, help, KindGauge, fn, labels)
}

// CounterFunc registers a counter series whose value is computed by fn at
// every scrape — for monotone totals the process already tracks elsewhere
// (compaction counts, store generations). fn must be monotone non-decreasing
// to honor counter semantics. Re-registering the same name and labels
// replaces the callback (last registration wins).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.funcSeries(name, help, KindCounter, fn, labels)
}

func (r *Registry) funcSeries(name, help string, kind Kind, fn func() float64, labels []Label) {
	names := make([]string, len(labels))
	values := make([]string, len(labels))
	for i, l := range labels {
		names[i] = l.Name
		values[i] = l.Value
	}
	f := r.family(name, help, kind, names, nil)
	s := f.get(values)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a histogram family with the given
// bucket upper bounds (ascending; +Inf is implicit) and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if !slices.IsSorted(buckets) || len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: metric %q needs ascending non-empty buckets", name))
	}
	return &HistogramVec{f: r.family(name, help, KindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }

// Sample is one series captured at scrape time.
type Sample struct {
	Labels []Label
	// Value is the counter or gauge value; zero for histograms.
	Value float64
	// Hist is the captured distribution; nil for counters and gauges.
	Hist *HistSnapshot
}

// FamilySnapshot is one family captured at scrape time.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// Gather captures every registered family in registration order, with
// series in first-use order. It is the substrate of both the Prometheus
// exposition and ad-hoc introspection (shutdown summaries, tests).
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	fams := slices.Clone(r.order)
	r.mu.Unlock()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

func (f *family) snapshot() FamilySnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
	fs.Samples = make([]Sample, 0, len(f.order))
	for _, key := range f.order {
		s := f.series[key]
		smp := Sample{Labels: s.labels}
		switch {
		case s.fn != nil:
			smp.Value = s.fn()
		case s.counter != nil:
			smp.Value = float64(s.counter.Value())
		case s.hist != nil:
			smp.Hist = s.hist.Snapshot()
		}
		fs.Samples = append(fs.Samples, smp)
	}
	return fs
}
