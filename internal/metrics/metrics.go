// Package metrics is a dependency-free telemetry substrate for the
// OctopusFS master, workers, and client: named registries of counters,
// gauges, and fixed-bucket histograms with Prometheus-text and JSON
// exposition.
//
// Metric names follow the scheme octopus_<component>_<name>; tiers are
// attached as a label carrying core.StorageTier.String() values
// ("MEMORY", "SSD", "HDD", "REMOTE"). All metric types are safe for
// concurrent use; updates are lock-free atomics, registration and
// exposition take the registry lock.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attaches dimensions to a metric. Nil means no labels.
type Labels map[string]string

// Metric type discriminators used in exposition output.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefLatencyBuckets are the default operation-latency buckets in
// seconds, spanning sub-millisecond RPCs to multi-second streams.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets are the default transfer-size buckets in bytes
// (1 KiB up to 1 GiB in powers of four).
var DefSizeBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// atomicFloat is a float64 with atomic add/load via bit-casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas are ignored to keep the counter monotone.
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets and
// tracks their sum, exposed in the Prometheus histogram convention
// (le-labelled cumulative buckets plus _sum and _count).
type Histogram struct {
	upper  []float64 // sorted bucket upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// snapshot returns cumulative bucket counts aligned with h.upper,
// plus the total count and sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.upper))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cum[i] = acc
	}
	return cum, h.count.Load(), h.sum.Load()
}

// Snapshot returns the histogram's bucket upper bounds, cumulative
// counts aligned with them, total count, and sum — the inputs to
// quantile estimation and cross-daemon histogram merging.
func (h *Histogram) Snapshot() (upper []float64, cum []uint64, count uint64, sum float64) {
	cum, count, sum = h.snapshot()
	return append([]float64(nil), h.upper...), cum, count, sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution from the bucket counts, Prometheus histogram_quantile
// style. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	cum, count, _ := h.snapshot()
	return QuantileFromBuckets(h.upper, cum, count, q)
}

// QuantileFromBuckets estimates the q-quantile from cumulative bucket
// counts (aligned with the sorted upper bounds) using linear
// interpolation within the located bucket, like PromQL's
// histogram_quantile. Observations beyond the last bound clamp to it.
func QuantileFromBuckets(upper []float64, cum []uint64, count uint64, q float64) float64 {
	if count == 0 || len(upper) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	for i, c := range cum {
		if float64(c) >= rank {
			lower, prev := 0.0, uint64(0)
			if i > 0 {
				lower, prev = upper[i-1], cum[i-1]
			}
			inBucket := float64(c - prev)
			if inBucket == 0 {
				return upper[i]
			}
			return lower + (upper[i]-lower)*((rank-float64(prev))/inBucket)
		}
	}
	// Rank falls in the implicit +Inf bucket: clamp to the last bound.
	return upper[len(upper)-1]
}

// metric is one registered series: a label set plus exactly one of the
// value kinds.
type metric struct {
	labels    Labels
	labelsKey string // canonical rendering, used for ordering and output

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     string
	buckets []float64 // histogram families only

	mu      sync.Mutex
	metrics map[string]*metric
}

func (f *family) get(labels Labels) (*metric, bool) {
	key := canonicalLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.metrics[key]
	if !ok {
		m = &metric{labels: copyLabels(labels), labelsKey: key}
		f.metrics[key] = m
	}
	// Initialise the value holder here, under the family lock:
	// concurrent first uses of a series (e.g. two RPC handlers hitting
	// the same vec child) must not race on lazy init.
	switch f.typ {
	case typeCounter:
		if m.counter == nil {
			m.counter = &Counter{}
		}
	case typeGauge:
		if m.gauge == nil {
			m.gauge = &Gauge{}
		}
	case typeHistogram:
		if m.hist == nil {
			m.hist = newHistogram(f.buckets)
		}
	}
	return m, ok
}

// setFn installs a sampling callback under the family lock.
func (f *family) setFn(labels Labels, fn func() float64) {
	key := canonicalLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.metrics[key]
	if !ok {
		m = &metric{labels: copyLabels(labels), labelsKey: key}
		f.metrics[key] = m
	}
	m.fn = fn
}

// Registry holds one component's metric families.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family, enforcing that
// one name maps to one metric type.
func (r *Registry) family(name, help, typ string, buckets []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{name: name, help: help, typ: typ, buckets: buckets,
				metrics: make(map[string]*metric)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// Counter returns the counter series name{labels}, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m, _ := r.family(name, help, typeCounter, nil).get(labels)
	return m.counter
}

// Gauge returns the settable gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	m, _ := r.family(name, help, typeGauge, nil).get(labels)
	return m.gauge
}

// GaugeFunc registers a gauge series whose value is sampled from fn at
// exposition time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.family(name, help, typeGauge, nil).setFn(labels, fn)
}

// Histogram returns the histogram series name{labels} with the given
// bucket upper bounds (nil selects DefLatencyBuckets). Bucket layout is
// fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	f := r.family(name, help, typeHistogram, buckets)
	m, _ := f.get(labels)
	return m.hist
}

// CounterVec is a family of counters distinguished by an ordered label
// key set, for cheap per-call lookups like ops.With("create").
type CounterVec struct {
	r    *Registry
	name string
	help string
	keys []string
	seen seriesCache[*Counter]
}

// CounterVec declares a labelled counter family with at most
// maxVecKeys label keys.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	checkVecKeys(name, keys)
	r.family(name, help, typeCounter, nil)
	return &CounterVec{r: r, name: name, help: help, keys: keys}
}

// With returns the series for the given label values (ordered like the
// vec's keys). A tuple the vec has served before costs one lock-free
// map lookup and no allocation.
func (v *CounterVec) With(values ...string) *Counter {
	checkValues(v.keys, values)
	return v.seen.get(values, func() *Counter {
		return v.r.Counter(v.name, v.help, zipLabels(v.keys, values))
	})
}

// HistogramVec is a family of histograms distinguished by an ordered
// label key set.
type HistogramVec struct {
	r       *Registry
	name    string
	help    string
	keys    []string
	buckets []float64
	seen    seriesCache[*Histogram]
}

// HistogramVec declares a labelled histogram family (nil buckets
// selects DefLatencyBuckets) with at most maxVecKeys label keys.
func (r *Registry) HistogramVec(name, help string, buckets []float64, keys ...string) *HistogramVec {
	checkVecKeys(name, keys)
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	r.family(name, help, typeHistogram, buckets)
	return &HistogramVec{r: r, name: name, help: help, keys: keys, buckets: buckets}
}

// With returns the series for the given label values, like
// CounterVec.With.
func (v *HistogramVec) With(values ...string) *Histogram {
	checkValues(v.keys, values)
	return v.seen.get(values, func() *Histogram {
		return v.r.Histogram(v.name, v.help, v.buckets, zipLabels(v.keys, values))
	})
}

// labelValues is a vec's label-value tuple as a map key.
type labelValues [maxVecKeys]string

// maxVecKeys bounds a vec's label keys, the width of labelValues.
const maxVecKeys = 4

func checkVecKeys(name string, keys []string) {
	if len(keys) > maxVecKeys {
		panic(fmt.Sprintf("metrics: %s has %d label keys, at most %d", name, len(keys), maxVecKeys))
	}
}

// seriesCache maps the label-value tuples a vec has served to their
// series. Readers load an immutable map through an atomic pointer; a
// miss copies it under mu. A vec serves a handful of tuples, so the
// copies end after warm-up.
type seriesCache[T any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[labelValues]T]
}

// get returns the series for values, resolving a new tuple with
// lookup.
func (c *seriesCache[T]) get(values []string, lookup func() T) T {
	var key labelValues
	copy(key[:], values)
	if m := c.m.Load(); m != nil {
		if s, ok := (*m)[key]; ok {
			return s
		}
	}
	s := lookup()
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(map[labelValues]T)
	if m := c.m.Load(); m != nil {
		maps.Copy(next, *m)
	}
	next[key] = s
	c.m.Store(&next)
	return s
}

func checkValues(keys, values []string) {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("metrics: %d label values for %d keys", len(values), len(keys)))
	}
}

func zipLabels(keys, values []string) Labels {
	l := make(Labels, len(keys))
	for i, k := range keys {
		l[k] = values[i]
	}
	return l
}

func copyLabels(l Labels) Labels {
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// canonicalLabels renders a label set as `k1="v1",k2="v2"` with sorted
// keys and escaped values; "" for the empty set.
func canonicalLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatFloat renders values the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedMetrics snapshots a family's series in label order.
func (f *family) sortedMetrics() []*metric {
	f.mu.Lock()
	ms := make([]*metric, 0, len(f.metrics))
	for _, m := range f.metrics {
		ms = append(ms, m)
	}
	f.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].labelsKey < ms[j].labelsKey })
	return ms
}

func (m *metric) scalarValue() float64 {
	switch {
	case m.counter != nil:
		return m.counter.Value()
	case m.gauge != nil:
		return m.gauge.Value()
	case m.fn != nil:
		return m.fn()
	}
	return 0
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4), families and series in
// deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, m := range f.sortedMetrics() {
			if err := writePromMetric(w, f, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromMetric(w io.Writer, f *family, m *metric) error {
	if f.typ != typeHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(m.labelsKey), formatFloat(m.scalarValue()))
		return err
	}
	hist := m.hist
	if hist == nil {
		return nil
	}
	cum, count, sum := hist.snapshot()
	for i, ub := range hist.upper {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, braced(withLE(m.labelsKey, formatFloat(ub))), cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, braced(withLE(m.labelsKey, "+Inf")), count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(m.labelsKey), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(m.labelsKey), count)
	return err
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func withLE(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

// jsonMetric is one series in the JSON exposition document.
type jsonMetric struct {
	Labels Labels `json:"labels,omitempty"`
	// Scalar kinds.
	Value *float64 `json:"value,omitempty"`
	// Histogram kind.
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// jsonFamily is one family in the JSON exposition document.
type jsonFamily struct {
	Name    string       `json:"name"`
	Type    string       `json:"type"`
	Help    string       `json:"help,omitempty"`
	Metrics []jsonMetric `json:"metrics"`
}

// WriteJSON renders every registered series as a JSON array of metric
// families, in the same deterministic order as WritePrometheus.
func (r *Registry) WriteJSON(w io.Writer) error {
	fams := r.sortedFamilies()
	out := make([]jsonFamily, 0, len(fams))
	for _, f := range fams {
		jf := jsonFamily{Name: f.name, Type: f.typ, Help: f.help, Metrics: []jsonMetric{}}
		for _, m := range f.sortedMetrics() {
			var jm jsonMetric
			jm.Labels = m.labels
			if f.typ == typeHistogram {
				if m.hist == nil {
					continue
				}
				cum, count, sum := m.hist.snapshot()
				jm.Count, jm.Sum = &count, &sum
				jm.Buckets = make(map[string]uint64, len(cum)+1)
				for i, ub := range m.hist.upper {
					jm.Buckets[formatFloat(ub)] = cum[i]
				}
				jm.Buckets["+Inf"] = count
			} else {
				v := m.scalarValue()
				jm.Value = &v
			}
			jf.Metrics = append(jf.Metrics, jm)
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
