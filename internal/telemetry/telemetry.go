// Package telemetry is the observability plane of the Remos
// reproduction: a dependency-free, race-safe metrics registry plus
// lightweight request tracing (trace.go) and a debug HTTP surface
// (http.go).
//
// Three instrument kinds cover the system's needs:
//
//   - Counter: a monotonic event count (polls completed, requests shed).
//   - Gauge: a last-written value (queue depth, cache age).
//   - Quantile: a bounded ring of recent observations summarized as the
//     same quartile Stat the Remos API itself reports (§4.4 of the
//     paper: network measurements do not follow a known distribution,
//     so report min/Q1/median/Q3/max, not a mean). Internal telemetry
//     deliberately speaks the same statistical language as the public
//     query interface.
//
// Every instrument is safe for concurrent use, and every instrument
// method is nil-safe: a nil *Registry hands out nil instruments whose
// methods are no-ops. "Telemetry disabled" is therefore spelled simply
// as a nil registry — no flags, no branches at call sites, and the
// disabled path costs one predictable nil check.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// DefaultQuantileWindow is the ring capacity a Quantile gets when the
// caller does not choose one: enough samples for stable quartiles,
// small enough that a snapshot copy is cheap.
const DefaultQuantileWindow = 512

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. No-op on a nil Counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil Counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-written float64 value, or one computed on read (see
// Registry.GaugeFunc).
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // set at creation; nil for a stored gauge
}

// Set stores v. No-op on a nil Gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value, or the computed one for a
// function gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Quantile keeps the most recent observations in a fixed ring and
// summarizes them as quartiles on demand. Count is the total number of
// observations ever made, so a snapshot distinguishes "window of the
// last 512" from "only 3 so far".
type Quantile struct {
	mu    sync.Mutex
	buf   []float64
	next  int
	full  bool
	count uint64
}

// Observe records one sample. No-op on a nil Quantile.
func (q *Quantile) Observe(v float64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.buf[q.next] = v
	q.next++
	if q.next == len(q.buf) {
		q.next = 0
		q.full = true
	}
	q.count++
	q.mu.Unlock()
}

// Count returns the total observations ever recorded (0 on nil).
func (q *Quantile) Count() uint64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Summary returns the quartile Stat over the current window contents
// (stats.NoData on nil or before the first observation).
func (q *Quantile) Summary() stats.Stat {
	return q.snapshot().Stat
}

// Percentile returns the p-th percentile (0..100, linearly
// interpolated) of the current window, or NaN on nil or before the
// first observation. For several percentiles of one consistent window
// use Percentiles.
func (q *Quantile) Percentile(p float64) float64 {
	return q.Percentiles(p)[0]
}

// Percentiles returns the requested percentiles (0..100 each, linearly
// interpolated) computed over one consistent snapshot of the window, so
// p50/p99/p999-style tails never straddle an Observe. Entries are NaN
// on nil or before the first observation.
func (q *Quantile) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	var window []float64
	if q != nil {
		q.mu.Lock()
		n := len(q.buf)
		if !q.full {
			n = q.next
		}
		window = make([]float64, n)
		if q.full {
			copy(window, q.buf[q.next:])
			copy(window[len(q.buf)-q.next:], q.buf[:q.next])
		} else {
			copy(window, q.buf[:q.next])
		}
		q.mu.Unlock()
	}
	if len(window) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sort.Float64s(window)
	for i, p := range ps {
		switch {
		case p <= 0:
			out[i] = window[0]
		case p >= 100:
			out[i] = window[len(window)-1]
		default:
			pos := p / 100 * float64(len(window)-1)
			lo := int(pos)
			frac := pos - float64(lo)
			out[i] = window[lo]
			if lo+1 < len(window) {
				out[i] += frac * (window[lo+1] - window[lo])
			}
		}
	}
	return out
}

func (q *Quantile) snapshot() QuantileSnapshot {
	if q == nil {
		return QuantileSnapshot{Stat: stats.NoData()}
	}
	q.mu.Lock()
	n := len(q.buf)
	if !q.full {
		n = q.next
	}
	window := make([]float64, n)
	if q.full {
		copy(window, q.buf[q.next:])
		copy(window[len(q.buf)-q.next:], q.buf[:q.next])
	} else {
		copy(window, q.buf[:q.next])
	}
	count := q.count
	q.mu.Unlock()
	return QuantileSnapshot{Stat: stats.Quartiles(window), Count: count, Window: n}
}

// Registry is a named collection of instruments. Lookups get-or-create,
// so call sites never coordinate registration; hot paths should still
// capture the returned instrument once rather than re-resolving the
// name per event.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	quantiles map[string]*Quantile

	spans         spanLog
	spansStarted  atomic.Uint64
	spansFinished atomic.Uint64
}

// NewRegistry creates an empty registry with the default span-log
// capacity.
func NewRegistry() *Registry {
	r := &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		quantiles: make(map[string]*Quantile),
	}
	r.spans.limit = DefaultSpanLog
	return r
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers the named gauge as computed by fn whenever it is
// read, replacing any gauge of that name. It suits a value that would
// otherwise be re-stored on a hot path only to be read rarely (an age,
// say). fn must be safe for concurrent use. A nil registry ignores the
// call.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = &Gauge{fn: fn}
	r.mu.Unlock()
}

// Quantile returns the named quantile ring, creating it with the given
// window capacity on first use (window <= 0 selects
// DefaultQuantileWindow; the window of an existing ring is not
// changed). A nil registry returns a nil (no-op) quantile.
func (r *Registry) Quantile(name string, window int) *Quantile {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	q := r.quantiles[name]
	r.mu.RUnlock()
	if q != nil {
		return q
	}
	if window <= 0 {
		window = DefaultQuantileWindow
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if q = r.quantiles[name]; q == nil {
		q = &Quantile{buf: make([]float64, window)}
		r.quantiles[name] = q
	}
	return q
}

// QuantileSnapshot is one quantile ring's exported state: the quartile
// summary of the current window, the total observation count, and how
// many samples the window held at snapshot time.
type QuantileSnapshot struct {
	Stat   stats.Stat
	Count  uint64
	Window int
}

// Snapshot is a consistent-enough copy of a registry: every instrument
// is read atomically, though the set as a whole is not a transaction
// (counters may advance between reads — fine for monitoring). It is a
// plain data struct so it crosses the collector's wire codec (the
// `stats` op) and JSON (the debug endpoint) unchanged.
type Snapshot struct {
	Counters  map[string]uint64
	Gauges    map[string]float64
	Quantiles map[string]QuantileSnapshot

	// Spans holds the most recent finished span records, oldest first.
	Spans []SpanRecord
	// SpansStarted/SpansFinished count span lifecycle events; a steady
	// state in which they differ is a span leak.
	SpansStarted  uint64
	SpansFinished uint64
}

// Snapshot captures the registry's current state. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:  make(map[string]uint64),
		Gauges:    make(map[string]float64),
		Quantiles: make(map[string]QuantileSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	quantiles := make(map[string]*Quantile, len(r.quantiles))
	for k, v := range r.quantiles {
		quantiles[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range quantiles {
		s.Quantiles[k] = v.snapshot()
	}
	s.Spans = r.spans.records()
	s.SpansStarted, s.SpansFinished = r.SpanCounts()
	return s
}

// MergeSnapshots combines snapshots from several registries (e.g. a
// daemon's server registry and its collector's) into one view. Key
// collisions — which a sane naming scheme avoids — resolve by summing
// counters, keeping the later gauge, and keeping the quantile with more
// total observations. Span logs concatenate; lifecycle counts sum.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:  make(map[string]uint64),
		Gauges:    make(map[string]float64),
		Quantiles: make(map[string]QuantileSnapshot),
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Quantiles {
			if prev, ok := out.Quantiles[k]; !ok || v.Count > prev.Count {
				out.Quantiles[k] = v
			}
		}
		out.Spans = append(out.Spans, s.Spans...)
		out.SpansStarted += s.SpansStarted
		out.SpansFinished += s.SpansFinished
	}
	return out
}

// CounterNames returns the snapshot's counter names sorted — render
// helpers for the CLI dashboard and tests.
func (s Snapshot) CounterNames() []string { return sortedKeys(s.Counters) }

// GaugeNames returns the snapshot's gauge names sorted.
func (s Snapshot) GaugeNames() []string { return sortedKeys(s.Gauges) }

// QuantileNames returns the snapshot's quantile names sorted.
func (s Snapshot) QuantileNames() []string { return sortedKeys(s.Quantiles) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
