// Package obs is the repository's observability substrate: a
// concurrency-safe metrics registry (counters, gauges, exact integer
// histograms, sliding-window quantile summaries), span-style stage timers,
// and structured JSONL event logging. The training loop, the feature
// extractor, the worker pool, and the inference service all report through
// this one package, so every pipeline stage exposes the same
// Prometheus-flavoured text form and the same p50/p99 summaries
// (DESIGN.md, "Observability").
//
// Two contracts define the package:
//
//   - Instrumentation is strictly off the determinism-critical path.
//     Nothing read from a clock or a metric ever feeds a computation:
//     timers and counters are write-mostly sinks, scraped only for
//     humans and dashboards. Trained weights and served predictions are
//     bit-identical with or without instrumentation (enforced by parity
//     tests), and the `timing` analyzer of hsd-vet confines time.Now to
//     this package so every clock read in the tree is auditable here.
//
//   - Everything is safe for concurrent use. Instruments guard their own
//     state; the registry guards its series map; scraping concurrent with
//     recording is race-free (the race-detector test in obs_test.go pins
//     this).
//
// The package depends only on the standard library and imports nothing
// from this repository, so any package — including internal/parallel at
// the bottom of the stack — may instrument itself without import cycles.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" pair qualifying a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// renderLabels formats labels in the order given, e.g. `{a="x",b="y"}`;
// empty input renders as "". Label order is part of a series' rendered
// identity, so callers must pass labels in a consistent order (they do:
// every series is created at one call site).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// kind discriminates the instrument types a series can hold.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindIntHist
	kindSummary
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindIntHist:
		return "inthist"
	case kindSummary:
		return "summary"
	}
	return "unknown"
}

// series is one registered (name, labels) instrument.
type series struct {
	name   string
	labels []Label
	id     string // name + rendered labels, the registry key and sort key
	kind   kind

	counter  *Counter
	gauge    *Gauge
	hist     *IntHist
	summary  *Summary
	histKey  string // IntHist: the label key its buckets render under
	gaugeFmt int    // Gauge: decimals; < 0 renders as an integer
}

// Registry is a set of named metric series. Instrument getters are
// idempotent: asking twice for the same (name, labels) returns the same
// instrument, so call sites need no registration phase. The zero value is
// not usable; build one with NewRegistry or use the process-wide Default.
type Registry struct {
	mu          sync.Mutex
	series      map[string]*series
	stageMetric string
}

// DefaultStageMetric is the metric name Stage and Span record under when
// SetStageMetric has not renamed it.
const DefaultStageMetric = "hsd_stage_seconds"

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series:      make(map[string]*series),
		stageMetric: DefaultStageMetric,
	}
}

// std is the process-wide registry. Library instrumentation (train,
// feature, parallel) records here; commands dump it via -metrics-out.
var std = NewRegistry()

// Default returns the process-wide registry. Metrics are pure
// observability — they never feed computation — so a process-global sink
// is safe: it cannot affect determinism, only describe the run.
func Default() *Registry { return std }

// SetStageMetric renames the series Stage and Span record under (default
// DefaultStageMetric). The serving layer sets "serve_stage_seconds" so its
// scrape keeps its historical series names.
func (r *Registry) SetStageMetric(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stageMetric = name
}

// get returns the series for (name, labels), creating it with the given
// kind on first use. A kind clash on an existing series is a programming
// error (two call sites fighting over one name) and panics, matching the
// fail-fast registration convention of every metrics library; any test
// that touches the path catches it.
//
// histKey and gaugeFmt are the IntHist and Gauge rendering parameters.
// They are fixed when the series is created, under the registry lock, so
// a scrape can read them without racing a later getter call.
func (r *Registry) get(name string, labels []Label, k kind, histKey string, gaugeFmt int) *series {
	id := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[id]
	if !ok {
		s = &series{name: name, labels: labels, id: id, kind: k, histKey: histKey, gaugeFmt: gaugeFmt}
		switch k {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindIntHist:
			s.hist = &IntHist{counts: make(map[int]int64)}
		case kindSummary:
			s.summary = newSummary(0)
		}
		r.series[id] = s
	}
	if s.kind != k {
		panic(fmt.Sprintf("obs: series %s registered as %v, requested as %v", id, s.kind, k))
	}
	return s
}

// Counter returns the (monotone) counter series, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, labels, kindCounter, "", 0).counter
}

// Gauge returns a settable gauge series rendered with prec decimals
// (prec < 0 renders the value as an integer), creating it on first use;
// the first call's prec is the one that renders.
func (r *Registry) Gauge(name string, prec int, labels ...Label) *Gauge {
	return r.get(name, labels, kindGauge, "", prec).gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time by
// fn (which must not touch this registry, or the scrape deadlocks).
// Calling it again for the same series replaces the function.
func (r *Registry) GaugeFunc(name string, prec int, fn func() float64, labels ...Label) {
	r.get(name, labels, kindGauge, "", prec).gauge.setFunc(fn)
}

// IntHist returns an exact integer histogram series whose buckets render
// as labelKey="<value>" entries, creating it on first use (the first
// call's labelKey is the one that renders).
func (r *Registry) IntHist(name, labelKey string, labels ...Label) *IntHist {
	return r.get(name, labels, kindIntHist, labelKey, 0).hist
}

// Summary returns a sliding-window quantile summary series (window <= 0
// means DefaultWindow), creating it on first use. The window size is fixed
// at creation; later calls return the existing summary unchanged.
func (r *Registry) Summary(name string, window int, labels ...Label) *Summary {
	id := name + renderLabels(labels)
	r.mu.Lock()
	s, ok := r.series[id]
	if !ok {
		s = &series{name: name, labels: labels, id: id, kind: kindSummary, summary: newSummary(window)}
		r.series[id] = s
	}
	r.mu.Unlock()
	if s.kind != kindSummary {
		panic(fmt.Sprintf("obs: series %s registered as %v, requested as summary", id, s.kind))
	}
	return s.summary
}

// Stage returns the latency summary of one named pipeline stage — the
// series {stage="<name>"} of the registry's stage metric. Hierarchical
// stage names are "/"-separated ("train/step", "feature/dct").
func (r *Registry) Stage(stage string) *Summary {
	r.mu.Lock()
	metric := r.stageMetric
	r.mu.Unlock()
	return r.Summary(metric, 0, L("stage", stage))
}

// Counter is a monotonically increasing int64. Safe for concurrent use.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (negative deltas are ignored; counters are monotone).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a point-in-time value: either set explicitly or computed at
// read time by a function (GaugeFunc). Safe for concurrent use.
type Gauge struct {
	mu sync.Mutex
	v  float64
	fn func() float64
}

// Set stores v (ignored while a GaugeFunc is installed).
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

func (g *Gauge) setFunc(fn func() float64) {
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	fn, v := g.fn, g.v
	g.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return v
}

// IntHist is an exact histogram over integer observations (batch sizes,
// queue depths): every distinct value gets its own bucket, so the scrape
// is the full distribution, not an approximation. Safe for concurrent use.
type IntHist struct {
	mu     sync.Mutex
	counts map[int]int64
}

// Observe counts one occurrence of v.
func (h *IntHist) Observe(v int) {
	h.mu.Lock()
	h.counts[v]++
	h.mu.Unlock()
}

// Counts returns a copy of the value → count map.
func (h *IntHist) Counts() map[int]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]int64, len(h.counts))
	for k, v := range h.counts {
		out[k] = v
	}
	return out
}

// Text renders every series in the Prometheus-flavoured plain-text form,
// sorted by series identity so scrapes are deterministic:
//
//	name{labels} value                        counters, gauges
//	name{labels,key="v"} count                integer histograms, per bucket
//	name_count{labels} n                      summaries: total observations
//	name{labels,q="p50"} seconds              summaries: window quantiles
//	name{labels,q="p99"} seconds
func (r *Registry) Text() string {
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].id < all[j].id
	})

	var b strings.Builder
	for _, s := range all {
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, renderLabels(s.labels), s.counter.Value())
		case kindGauge:
			v := s.gauge.Value()
			if s.gaugeFmt < 0 {
				fmt.Fprintf(&b, "%s%s %d\n", s.name, renderLabels(s.labels), int64(v))
			} else {
				fmt.Fprintf(&b, "%s%s %.*f\n", s.name, renderLabels(s.labels), s.gaugeFmt, v)
			}
		case kindIntHist:
			counts := s.hist.Counts()
			keys := make([]int, 0, len(counts))
			for k := range counts {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				bucket := append(append([]Label{}, s.labels...), L(s.histKey, fmt.Sprintf("%d", k)))
				fmt.Fprintf(&b, "%s%s %d\n", s.name, renderLabels(bucket), counts[k])
			}
		case kindSummary:
			count, p50, p99 := s.summary.stats()
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, renderLabels(s.labels), count)
			for _, q := range [...]struct {
				tag string
				v   float64
			}{{"p50", p50}, {"p99", p99}} {
				quantile := append(append([]Label{}, s.labels...), L("q", q.tag))
				fmt.Fprintf(&b, "%s%s %.9f\n", s.name, renderLabels(quantile), q.v)
			}
			// Exemplar line: the window's slowest tagged observation,
			// labeled with its trace ID so the scrape links into
			// GET /debug/trace. Only summaries fed via ObserveExemplar
			// render it.
			if v, ex, ok := s.summary.Exemplar(); ok {
				exLabels := append(append([]Label{}, s.labels...), L("q", "max"), L("trace_id", ex))
				fmt.Fprintf(&b, "%s%s %.9f\n", s.name, renderLabels(exLabels), v)
			}
		}
	}
	return b.String()
}

// WriteText writes Text to w.
func (r *Registry) WriteText(w io.Writer) error {
	_, err := io.WriteString(w, r.Text())
	return err
}

// SeriesSnapshot is a point-in-time copy of one series, for programmatic
// consumers (the serving layer rebuilds its typed snapshot from these).
type SeriesSnapshot struct {
	// Name and Labels identify the series.
	Name   string
	Labels []Label
	// Value holds counter and gauge readings.
	Value float64
	// Counts holds integer-histogram buckets (nil otherwise).
	Counts map[int]int64
	// Count, P50 and P99 hold summary statistics.
	Count    int64
	P50, P99 float64
}

// Label returns the value of the label named key ("" when absent).
func (s SeriesSnapshot) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Snapshot copies every series whose name matches one of names (all series
// when names is empty), in sorted series order.
func (r *Registry) Snapshot(names ...string) []SeriesSnapshot {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		if len(want) == 0 || want[s.name] {
			all = append(all, s)
		}
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })

	out := make([]SeriesSnapshot, 0, len(all))
	for _, s := range all {
		snap := SeriesSnapshot{Name: s.name, Labels: append([]Label{}, s.labels...)}
		switch s.kind {
		case kindCounter:
			snap.Value = float64(s.counter.Value())
		case kindGauge:
			snap.Value = s.gauge.Value()
		case kindIntHist:
			snap.Counts = s.hist.Counts()
		case kindSummary:
			snap.Count, snap.P50, snap.P99 = s.summary.stats()
		}
		out = append(out, snap)
	}
	return out
}
