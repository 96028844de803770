package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The traced run times server-side layers from outside the program by
// wrapping the seams the program already exposes: a collector.Source,
// an snmp.Transport and a collector.MatrixHandler. A wrapped Source
// must keep every optional capability of the one it wraps, or the
// traced run would measure a different program: hiding MatrixSource
// turns a remote matrix into N×M per-pair calls, hiding
// VersionedSource switches the Modeler's memo off.

// boundary counts and times the calls one decorator sees.
type boundary struct {
	layer string
	tr    *tracer
	// parent supplies the parent span of calls made without a context
	// (the SNMP transport, called from the writer's poll).
	parent func() uint64

	mu   sync.Mutex
	byOp map[string][]float64 // call durations in ms
}

func newBoundary(layer string, tr *tracer) *boundary {
	return &boundary{layer: layer, tr: tr, byOp: map[string][]float64{}}
}

// begin opens a span under ctx's span (ctx may be nil) and returns the
// context to pass on.
func (b *boundary) begin(ctx context.Context, op string) (context.Context, span) {
	var parent uint64
	var trace string
	if ctx != nil {
		parent, trace = spanFrom(ctx), telemetry.TraceFrom(ctx)
	} else if b.parent != nil {
		parent = b.parent()
	}
	s := b.tr.open(parent, trace, b.layer, op)
	if ctx != nil {
		ctx = withSpan(ctx, s.ID)
	}
	return ctx, s
}

func (b *boundary) end(s span) {
	b.tr.close(&s)
	ms := float64(s.End-s.Start) / 1e6
	b.mu.Lock()
	b.byOp[s.Op] = append(b.byOp[s.Op], ms)
	b.mu.Unlock()
}

func (b *boundary) reset() {
	b.mu.Lock()
	b.byOp = map[string][]float64{}
	b.mu.Unlock()
}

// durations returns the recorded call durations (ms) of the given ops,
// or of every op when none is named.
func (b *boundary) durations(ops ...string) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []float64
	for op, v := range b.byOp {
		if len(ops) == 0 || slices.Contains(ops, op) {
			out = append(out, v...)
		}
	}
	return out
}

// tSource times the Source methods every source has.
type tSource struct {
	inner collector.Source
	b     *boundary
}

func (s *tSource) Topology() (*collector.Topology, error) {
	_, sp := s.b.begin(nil, "topo")
	t, err := s.inner.Topology()
	s.b.end(sp)
	return t, err
}

func (s *tSource) Utilization(key collector.ChannelKey, span float64) (stats.Stat, error) {
	_, sp := s.b.begin(nil, "util")
	st, err := s.inner.Utilization(key, span)
	s.b.end(sp)
	return st, err
}

func (s *tSource) Samples(key collector.ChannelKey) ([]stats.Sample, error) {
	_, sp := s.b.begin(nil, "samples")
	v, err := s.inner.Samples(key)
	s.b.end(sp)
	return v, err
}

func (s *tSource) HostLoad(node graph.NodeID, span float64) (stats.Stat, error) {
	_, sp := s.b.begin(nil, "load")
	st, err := s.inner.HostLoad(node, span)
	s.b.end(sp)
	return st, err
}

func (s *tSource) DataAge(key collector.ChannelKey) (float64, error) {
	_, sp := s.b.begin(nil, "age")
	a, err := s.inner.DataAge(key)
	s.b.end(sp)
	return a, err
}

// One type per optional capability. Each forwards to the wrapped
// source, timing the calls that do work.

type ctxCap struct{ s *tSource }

func (c ctxCap) TopologyCtx(ctx context.Context) (*collector.Topology, error) {
	ctx, sp := c.s.b.begin(ctx, "topo")
	t, err := c.s.inner.(collector.ContextSource).TopologyCtx(ctx)
	c.s.b.end(sp)
	return t, err
}

func (c ctxCap) UtilizationCtx(ctx context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	ctx, sp := c.s.b.begin(ctx, "util")
	st, err := c.s.inner.(collector.ContextSource).UtilizationCtx(ctx, key, span)
	c.s.b.end(sp)
	return st, err
}

func (c ctxCap) SamplesCtx(ctx context.Context, key collector.ChannelKey) ([]stats.Sample, error) {
	ctx, sp := c.s.b.begin(ctx, "samples")
	v, err := c.s.inner.(collector.ContextSource).SamplesCtx(ctx, key)
	c.s.b.end(sp)
	return v, err
}

func (c ctxCap) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	ctx, sp := c.s.b.begin(ctx, "load")
	st, err := c.s.inner.(collector.ContextSource).HostLoadCtx(ctx, node, span)
	c.s.b.end(sp)
	return st, err
}

func (c ctxCap) DataAgeCtx(ctx context.Context, key collector.ChannelKey) (float64, error) {
	ctx, sp := c.s.b.begin(ctx, "age")
	a, err := c.s.inner.(collector.ContextSource).DataAgeCtx(ctx, key)
	c.s.b.end(sp)
	return a, err
}

type matrixCap struct{ s *tSource }

func (c matrixCap) MatrixQuery(ctx context.Context, req *collector.MatrixRequest) (*collector.MatrixAnswer, error) {
	ctx, sp := c.s.b.begin(ctx, "matrix")
	a, err := c.s.inner.(collector.MatrixSource).MatrixQuery(ctx, req)
	c.s.b.end(sp)
	return a, err
}

type versionCap struct{ s *tSource }

func (c versionCap) DataVersion() (uint64, bool) {
	return c.s.inner.(collector.VersionedSource).DataVersion()
}

type notifierCap struct{ s *tSource }

func (c notifierCap) SubscribeVersion() (<-chan struct{}, func()) {
	return c.s.inner.(collector.VersionNotifier).SubscribeVersion()
}

type feedCap struct{ s *tSource }

func (c feedCap) FeedSince(cur *collector.FeedCursor) (*collector.FeedPayload, error) {
	return c.s.inner.(collector.FeedSource).FeedSince(cur)
}

type healthCap struct{ s *tSource }

func (c healthCap) Health() map[graph.NodeID]collector.AgentHealth {
	return c.s.inner.(collector.HealthSource).Health()
}

type telemetryCap struct{ s *tSource }

func (c telemetryCap) Telemetry() *telemetry.Registry {
	return c.s.inner.(collector.TelemetrySource).Telemetry()
}

type haCap struct{ s *tSource }

func (c haCap) HAStatus() (uint64, bool, bool) {
	return c.s.inner.(collector.HAStatusSource).HAStatus()
}

type watchCap struct{ s *tSource }

func (c watchCap) Watch(ctx context.Context, req collector.WatchRequest) (*collector.WatchHandle, error) {
	return c.s.inner.(collector.WatchSource).Watch(ctx, req)
}

type regionCap struct{ s *tSource }

func (c regionCap) RegionName() string { return c.s.inner.(collector.RegionSummarySource).RegionName() }

func (c regionCap) RegionSummary() (*collector.RegionSummary, error) {
	return c.s.inner.(collector.RegionSummarySource).RegionSummary()
}

type freshCap struct{ s *tSource }

func (c freshCap) CheckFresh() error { return c.s.inner.(freshnessChecker).CheckFresh() }

type closeCap struct{ s *tSource }

func (c closeCap) Close() error { return c.s.inner.(closer).Close() }

// freshnessChecker and closer are the capabilities the program probes
// for with interfaces of its own (core's fencing hook, federation's
// peer release).
type (
	freshnessChecker interface{ CheckFresh() error }
	closer           interface{ Close() error }
)

// capabilities lists every optional interface the program discovers on
// a Source by type assertion.
var capabilities = []struct {
	name string
	has  func(any) bool
}{
	{"ContextSource", func(v any) bool { _, ok := v.(collector.ContextSource); return ok }},
	{"MatrixSource", func(v any) bool { _, ok := v.(collector.MatrixSource); return ok }},
	{"VersionedSource", func(v any) bool { _, ok := v.(collector.VersionedSource); return ok }},
	{"VersionNotifier", func(v any) bool { _, ok := v.(collector.VersionNotifier); return ok }},
	{"FeedSource", func(v any) bool { _, ok := v.(collector.FeedSource); return ok }},
	{"HealthSource", func(v any) bool { _, ok := v.(collector.HealthSource); return ok }},
	{"TelemetrySource", func(v any) bool { _, ok := v.(collector.TelemetrySource); return ok }},
	{"HAStatusSource", func(v any) bool { _, ok := v.(collector.HAStatusSource); return ok }},
	{"WatchSource", func(v any) bool { _, ok := v.(collector.WatchSource); return ok }},
	{"RegionSummarySource", func(v any) bool { _, ok := v.(collector.RegionSummarySource); return ok }},
	{"CheckFresh", func(v any) bool { _, ok := v.(freshnessChecker); return ok }},
	{"Close", func(v any) bool { _, ok := v.(closer); return ok }},
}

// capsOf names the optional interfaces v implements.
func capsOf(v any) []string {
	var out []string
	for _, c := range capabilities {
		if c.has(v) {
			out = append(out, c.name)
		}
	}
	return out
}

// The capability sets of the sources the workloads wrap.
type (
	// *collector.Collector
	collectorShape struct {
		*tSource
		ctxCap
		versionCap
		notifierCap
		feedCap
		healthCap
		telemetryCap
		haCap
		watchCap
	}
	// *collector.Client
	clientShape struct {
		*tSource
		ctxCap
		matrixCap
		healthCap
		watchCap
		closeCap
	}
	// *federation.View
	viewShape struct {
		*tSource
		ctxCap
		versionCap
		healthCap
		telemetryCap
		haCap
		watchCap
		regionCap
	}
	// *replica.Replica
	replicaShape struct {
		*tSource
		ctxCap
		versionCap
		notifierCap
		healthCap
		telemetryCap
		freshCap
	}
)

var shapes = []func(s *tSource) collector.Source{
	func(s *tSource) collector.Source {
		return &collectorShape{s, ctxCap{s}, versionCap{s}, notifierCap{s}, feedCap{s},
			healthCap{s}, telemetryCap{s}, haCap{s}, watchCap{s}}
	},
	func(s *tSource) collector.Source {
		return &clientShape{s, ctxCap{s}, matrixCap{s}, healthCap{s}, watchCap{s}, closeCap{s}}
	},
	func(s *tSource) collector.Source {
		return &viewShape{s, ctxCap{s}, versionCap{s}, healthCap{s}, telemetryCap{s}, haCap{s},
			watchCap{s}, regionCap{s}}
	},
	func(s *tSource) collector.Source {
		return &replicaShape{s, ctxCap{s}, versionCap{s}, notifierCap{s}, healthCap{s},
			telemetryCap{s}, freshCap{s}}
	},
}

// wrapSource times inner's calls at boundary b. It fails rather than
// return a wrapper whose capabilities differ from inner's.
func wrapSource(inner collector.Source, b *boundary) (collector.Source, error) {
	want := capsOf(inner)
	s := &tSource{inner: inner, b: b}
	for _, shape := range shapes {
		if w := shape(s); slices.Equal(capsOf(w), want) {
			return w, nil
		}
	}
	return nil, fmt.Errorf("perfbench: no decorator keeps the capabilities %v of %T", want, inner)
}

// tTransport times SNMP round trips; they happen inside the writer's
// poll, so each span's parent is the poll in progress.
type tTransport struct {
	inner snmp.Transport
	b     *boundary
}

func (t *tTransport) RoundTrip(addr string, req []byte) ([]byte, error) {
	_, sp := t.b.begin(nil, "roundtrip")
	resp, err := t.inner.RoundTrip(addr, req)
	t.b.end(sp)
	return resp, err
}

// timedMatrix times a server's matrix handler. A call is "cold" when
// the serving source's data version moved since the previous call —
// the first call of each epoch, which rebuilds the snapshot — and
// "warm" otherwise.
func timedMatrix(h collector.MatrixHandler, b *boundary, version func() uint64) collector.MatrixHandler {
	var last atomic.Uint64
	return func(ctx context.Context, req *collector.MatrixRequest) (*collector.MatrixAnswer, error) {
		op := "warm"
		if v := version(); last.Swap(v) != v {
			op = "cold"
		}
		ctx, sp := b.begin(ctx, op)
		ans, err := h(ctx, req)
		b.end(sp)
		return ans, err
	}
}

// boundaries are the traced run's decorators, one per layer.
type boundaries struct {
	tr     *tracer
	client *boundary // client.rpc
	source *boundary // server.source
	matrix *boundary // core.matrix
	snmp   *boundary // snmp.roundtrip
	poll   *boundary // collector.poll
}

func newBoundaries() *boundaries {
	tr := newTracer()
	bs := &boundaries{
		tr:     tr,
		client: newBoundary(layerClientRPC, tr),
		source: newBoundary(layerSource, tr),
		matrix: newBoundary(layerMatrix, tr),
		snmp:   newBoundary(layerSNMP, tr),
		poll:   newBoundary(layerPoll, tr),
	}
	bs.snmp.parent = tr.poll.Load
	return bs
}

func (bs *boundaries) reset() {
	bs.tr.reset()
	for _, b := range []*boundary{bs.client, bs.source, bs.matrix, bs.snmp, bs.poll} {
		b.reset()
	}
}
