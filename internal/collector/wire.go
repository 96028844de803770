package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The query plane's wire codec: a hand-written binary encoding of the
// muxFrame envelope and every payload it carries. One frame payload
// (what follows frame.go's 4-byte length prefix) is
//
//	version  1 byte   wireVersion
//	body     the value's fields in declaration order, encoded as below
//
//	unsigned integer      uvarint
//	signed integer        zigzag varint
//	float64               1-byte count n, then the first n bytes of the
//	                      IEEE 754 bits big-endian; the 8−n bytes dropped
//	                      are zero (NaN, ±Inf and −0 survive)
//	bool                  1 byte, 0 or 1
//	string                uvarint length, then the bytes
//	slice, map            uvarint count, then the elements (map: key, value)
//	pointer               1 byte, 0 = nil or 1 = set, then the value if set
//	time.Time             uvarint length, then MarshalBinary (length 0 = zero time)
//	time.Duration         zigzag varint nanoseconds
//
// Frames carry no type information and no state from earlier frames, so
// a reader can start at any frame boundary: a connection aborted
// mid-frame never poisons the next one, and reconnect-after-abort needs
// no resynchronization.
//
// Zero-length slices and maps decode as nil, so a value that crossed the
// wire compares equal to one built locally with nil fields.
//
// Version rule: any change to a layout bumps wireVersion. A server that
// reads a frame with another version answers it with wireRefusal and
// drops the connection; the client, reading a frame of a version it
// does not speak, fails the call with ErrWireVersion and does not
// retry. There is no negotiation and no fallback, because every peer
// builds from this repository.
//
// The decoder is total over arbitrary bytes: every element count is
// checked against the bytes that remain before anything is allocated
// for it, and truncation or garbage yields an error, never a panic.

// wireVersion is the protocol version byte leading every frame payload.
const wireVersion = 1

// ErrWireVersion is the typed refusal for a frame whose version byte
// this build does not speak.
var ErrWireVersion = errors.New("collector: unknown wire protocol version")

// wireRefusal is the whole frame a server writes before dropping a
// connection whose peer sent another version: a length prefix of 1 and
// the server's own version byte, nothing else. This layout never
// changes across versions, and every version reads the version byte
// first, so the peer — at another version by construction — sees
// ErrWireVersion rather than a bare reset.
var wireRefusal = [...]byte{0, 0, 0, 1, wireVersion}

// errWireTruncated reports a frame that ends inside a value or whose
// counts claim more elements than its remaining bytes can hold.
var errWireTruncated = errors.New("collector: truncated wire frame")

// maxMapHint caps the size hint a decoded count may give make(map): a
// map larger than this grows as its entries actually decode.
const maxMapHint = 1024

// wireMsg is a value that travels as one whole frame payload.
type wireMsg interface {
	encodeWire(w *wireWriter)
	decodeWire(r *wireReader)
}

// wireWriter appends encoded values to b.
type wireWriter struct{ b []byte }

func (w *wireWriter) u8(v byte)        { w.b = append(w.b, v) }
func (w *wireWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *wireWriter) int(v int)        { w.b = binary.AppendVarint(w.b, int64(v)) }

// f64 writes the float's IEEE 754 bits big-endian, sign and exponent
// first, without their trailing zero bytes, behind a 1-byte count:
// zero costs 1 byte and round values such as sample times, capacities
// and +Inf cost 2–5, while an arbitrary value costs 9.
func (w *wireWriter) f64(v float64) {
	u := math.Float64bits(v)
	n := 8 - bits.TrailingZeros64(u)/8
	w.b = append(w.b, byte(n))
	w.b = binary.BigEndian.AppendUint64(w.b, u)[:len(w.b)+n]
}

func (w *wireWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *wireWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// present writes a pointer's presence byte and reports whether the
// value follows.
func (w *wireWriter) present(set bool) bool {
	w.bool(set)
	return set
}

// wireReader decodes from b. The first error sticks: it empties b, so
// every later read fails fast and returns a zero value, and callers
// check err once at the end instead of after every field.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *wireReader) take(n int) []byte {
	if n > len(r.b) {
		r.fail(errWireTruncated)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *wireReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad uvarint", errWireTruncated))
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.fail(fmt.Errorf("%w: bad varint", errWireTruncated))
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *wireReader) f64() float64 {
	n := int(r.u8())
	if n > 8 {
		r.fail(fmt.Errorf("collector: float of %d bytes in wire frame", n))
		return 0
	}
	var u [8]byte
	copy(u[:], r.take(n))
	return math.Float64frombits(binary.BigEndian.Uint64(u[:]))
}

func (r *wireReader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errors.New("collector: bad bool byte in wire frame"))
	return false
}

func (r *wireReader) present() bool { return r.bool() }

// count reads an element count and checks that that many elements of
// at least minSize encoded bytes each fit in what remains, so no allocation
// is ever sized by a lying count.
func (r *wireReader) count(minSize int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/minSize) {
		r.fail(fmt.Errorf("%w: count %d exceeds the %d bytes left", errWireTruncated, v, len(r.b)))
		return 0
	}
	return int(v)
}

func (r *wireReader) str() string {
	return string(r.take(r.count(1)))
}

// writeSlice and readSlice encode a slice as its count and elements;
// minSize is the smallest encoding of one element.
func writeSlice[T any](w *wireWriter, s []T, enc func(*wireWriter, T)) {
	w.uvarint(uint64(len(s)))
	for _, v := range s {
		enc(w, v)
	}
}

func readSlice[T any](r *wireReader, minSize int, dec func(*wireReader) T) []T {
	n := r.count(minSize)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = dec(r)
	}
	return s
}

// writeMap and readMap encode a map as its count and key/value pairs in
// iteration order; minSize is the smallest encoding of one pair.
func writeMap[K comparable, V any](w *wireWriter, m map[K]V, key func(*wireWriter, K), val func(*wireWriter, V)) {
	w.uvarint(uint64(len(m)))
	for k, v := range m {
		key(w, k)
		val(w, v)
	}
}

func readMap[K comparable, V any](r *wireReader, minSize int, key func(*wireReader) K, val func(*wireReader) V) map[K]V {
	n := r.count(minSize)
	if n == 0 {
		return nil
	}
	m := make(map[K]V, min(n, maxMapHint))
	for i := 0; i < n; i++ {
		k := key(r)
		m[k] = val(r)
	}
	return m
}

func (w *wireWriter) nodeID(id graph.NodeID) {
	w.str(string(id))
}
func (r *wireReader) nodeID() graph.NodeID { return graph.NodeID(r.str()) }

// Encoded sizes of the smallest possible elements, for count checks:
// every integer, string, count, presence byte and float takes at least
// one byte.
const (
	minSample       = 2
	minStat         = 8
	minChannelKey   = 2
	minAgentHealth  = 6
	minWireNode     = 5
	minWireLink     = 5
	minRegionHost   = 5
	minRegionBorder = 2
	minRegionPair   = 6
	minQuantile     = minStat + 2
	minSpanRecord   = 5
)

func (w *wireWriter) sample(s stats.Sample) {
	w.f64(s.Time)
	w.f64(s.Value)
}

func (r *wireReader) sample() stats.Sample {
	return stats.Sample{Time: r.f64(), Value: r.f64()}
}

func (w *wireWriter) samples(s []stats.Sample) { writeSlice(w, s, (*wireWriter).sample) }
func (r *wireReader) samples() []stats.Sample {
	return readSlice(r, minSample, (*wireReader).sample)
}

func (w *wireWriter) stat(s stats.Stat) {
	w.f64(s.Min)
	w.f64(s.Q1)
	w.f64(s.Median)
	w.f64(s.Q3)
	w.f64(s.Max)
	w.f64(s.Accuracy)
	w.int(s.Samples)
	w.f64(s.Age)
}

func (r *wireReader) stat() stats.Stat {
	return stats.Stat{
		Min: r.f64(), Q1: r.f64(), Median: r.f64(), Q3: r.f64(), Max: r.f64(),
		Accuracy: r.f64(), Samples: r.int(), Age: r.f64(),
	}
}

func (w *wireWriter) channelKey(k ChannelKey) {
	w.int(k.Global)
	w.int(int(k.Dir))
}

func (r *wireReader) channelKey() ChannelKey {
	return ChannelKey{Global: r.int(), Dir: graph.Dir(r.int())}
}

func (w *wireWriter) agentHealth(h AgentHealth) {
	w.int(int(h.State))
	w.int(h.ConsecutiveFailures)
	w.f64(h.LastSuccess)
	w.f64(h.LastAttempt)
	w.f64(h.NextAttempt)
	w.uvarint(h.Skipped)
}

func (r *wireReader) agentHealth() AgentHealth {
	return AgentHealth{
		State: HealthState(r.int()), ConsecutiveFailures: r.int(),
		LastSuccess: r.f64(), LastAttempt: r.f64(), NextAttempt: r.f64(),
		Skipped: r.uvarint(),
	}
}

func (w *wireWriter) health(m map[string]AgentHealth) {
	writeMap(w, m, (*wireWriter).str, (*wireWriter).agentHealth)
}

func (r *wireReader) health() map[string]AgentHealth {
	return readMap(r, 1+minAgentHealth, (*wireReader).str, (*wireReader).agentHealth)
}

func (w *wireWriter) topo(t *WireTopo) {
	writeSlice(w, t.Nodes, func(w *wireWriter, n WireNode) {
		w.str(n.ID)
		w.int(n.Kind)
		w.f64(n.InternalBW)
		w.f64(n.ComputePower)
		w.f64(n.MemoryBytes)
	})
	writeSlice(w, t.Links, func(w *wireWriter, l WireLink) {
		w.str(l.A)
		w.str(l.B)
		w.f64(l.Capacity)
		w.f64(l.Latency)
		w.int(l.Global)
	})
	w.f64(t.DiscoveredAt)
}

func (r *wireReader) topo() *WireTopo {
	return &WireTopo{
		Nodes: readSlice(r, minWireNode, func(r *wireReader) WireNode {
			return WireNode{ID: r.str(), Kind: r.int(),
				InternalBW: r.f64(), ComputePower: r.f64(), MemoryBytes: r.f64()}
		}),
		Links: readSlice(r, minWireLink, func(r *wireReader) WireLink {
			return WireLink{A: r.str(), B: r.str(),
				Capacity: r.f64(), Latency: r.f64(), Global: r.int()}
		}),
		DiscoveredAt: r.f64(),
	}
}

// encodeWire and decodeWire: the envelope.

func (f *muxFrame) encodeWire(w *wireWriter) {
	w.uvarint(f.Stream)
	w.int(f.Kind)
	if w.present(f.Req != nil) {
		f.Req.encodeWire(w)
	}
	if w.present(f.Resp != nil) {
		f.Resp.encodeWire(w)
	}
	if w.present(f.Update != nil) {
		w.watchUpdate(f.Update)
	}
}

func (f *muxFrame) decodeWire(r *wireReader) {
	*f = muxFrame{Stream: r.uvarint(), Kind: r.int()}
	if r.present() {
		f.Req = new(request)
		f.Req.decodeWire(r)
	}
	if r.present() {
		f.Resp = new(response)
		f.Resp.decodeWire(r)
	}
	if r.present() {
		f.Update = r.watchUpdate()
	}
}

func (q *request) encodeWire(w *wireWriter) {
	w.str(q.Op)
	w.channelKey(q.Key)
	w.f64(q.Span)
	w.str(q.Node)
	if w.present(q.Watch != nil) {
		w.watchRequest(q.Watch)
	}
	if w.present(q.Matrix != nil) {
		w.matrixRequest(q.Matrix)
	}
	w.f64(q.BudgetMS)
	w.str(q.TraceID)
}

func (q *request) decodeWire(r *wireReader) {
	*q = request{Op: r.op(), Key: r.channelKey(), Span: r.f64(), Node: r.str()}
	if r.present() {
		q.Watch = r.watchRequest()
	}
	if r.present() {
		q.Matrix = r.matrixRequest()
	}
	q.BudgetMS = r.f64()
	q.TraceID = r.str()
}

// wireOps are the request op names; op decodes them without allocating
// a string per request.
var wireOps = [...]string{"topo", "util", "samples", "load", "age", "health", "stats", "ping", "watch", "matrix"}

func (r *wireReader) op() string {
	b := r.take(r.count(1))
	for _, op := range wireOps {
		if string(b) == op {
			return op
		}
	}
	return string(b)
}

func (p *response) encodeWire(w *wireWriter) {
	w.str(p.Err)
	w.stat(p.Stat)
	w.samples(p.Samples)
	if w.present(p.Topo != nil) {
		w.topo(p.Topo)
	}
	w.f64(p.Age)
	w.health(p.Health)
	w.int(p.Code)
	w.f64(p.RetryAfterMS)
	w.str(p.LeaderHint)
	w.uvarint(p.Term)
	w.bool(p.Leader)
	if w.present(p.Telemetry != nil) {
		w.snapshot(p.Telemetry)
	}
	if w.present(p.Matrix != nil) {
		w.matrixAnswer(p.Matrix)
	}
}

func (p *response) decodeWire(r *wireReader) {
	*p = response{Err: r.str(), Stat: r.stat(), Samples: r.samples()}
	if r.present() {
		p.Topo = r.topo()
	}
	p.Age = r.f64()
	p.Health = r.health()
	p.Code = r.int()
	p.RetryAfterMS = r.f64()
	p.LeaderHint = r.str()
	p.Term = r.uvarint()
	p.Leader = r.bool()
	if r.present() {
		p.Telemetry = r.snapshot()
	}
	if r.present() {
		p.Matrix = r.matrixAnswer()
	}
}

func (w *wireWriter) watchRequest(q *WatchRequest) {
	w.str(q.Kind)
	w.channelKey(q.Key)
	w.str(q.Node)
	w.f64(q.Span)
	w.f64(q.Threshold)
}

func (r *wireReader) watchRequest() *WatchRequest {
	return &WatchRequest{Kind: r.str(), Key: r.channelKey(), Node: r.str(), Span: r.f64(), Threshold: r.f64()}
}

func (w *wireWriter) matrixRequest(q *MatrixRequest) {
	writeSlice(w, q.Srcs, (*wireWriter).nodeID)
	writeSlice(w, q.Dsts, (*wireWriter).nodeID)
	w.int(q.TFKind)
	w.f64(q.Span)
	w.f64(q.Horizon)
}

func (r *wireReader) matrixRequest() *MatrixRequest {
	return &MatrixRequest{
		Srcs:   readSlice(r, 1, (*wireReader).nodeID),
		Dsts:   readSlice(r, 1, (*wireReader).nodeID),
		TFKind: r.int(), Span: r.f64(), Horizon: r.f64(),
	}
}

func (w *wireWriter) matrixAnswer(a *MatrixAnswer) {
	writeSlice(w, a.Bandwidth, func(w *wireWriter, row []float64) { writeSlice(w, row, (*wireWriter).f64) })
	writeSlice(w, a.Latency, func(w *wireWriter, row []float64) { writeSlice(w, row, (*wireWriter).f64) })
	writeSlice(w, a.Valid, func(w *wireWriter, row []bool) { writeSlice(w, row, (*wireWriter).bool) })
	w.uvarint(a.Epoch)
	w.uvarint(a.Term)
}

func (r *wireReader) matrixAnswer() *MatrixAnswer {
	f64Row := func(r *wireReader) []float64 { return readSlice(r, 1, (*wireReader).f64) }
	return &MatrixAnswer{
		Bandwidth: readSlice(r, 1, f64Row),
		Latency:   readSlice(r, 1, f64Row),
		Valid: readSlice(r, 1, func(r *wireReader) []bool {
			return readSlice(r, 1, (*wireReader).bool)
		}),
		Epoch: r.uvarint(),
		Term:  r.uvarint(),
	}
}

func (w *wireWriter) watchUpdate(u *WatchUpdate) {
	w.uvarint(u.Seq)
	w.uvarint(u.Epoch)
	w.bool(u.Overflowed)
	w.bool(u.Resync)
	w.bool(u.Final)
	w.bool(u.TopoChanged)
	w.uvarint(u.Term)
	w.stat(u.Stat)
	if w.present(u.Feed != nil) {
		u.Feed.encodeWire(w)
	}
	if w.present(u.Summary != nil) {
		w.regionSummary(u.Summary)
	}
	w.str(u.Err)
}

func (r *wireReader) watchUpdate() *WatchUpdate {
	u := &WatchUpdate{
		Seq: r.uvarint(), Epoch: r.uvarint(),
		Overflowed: r.bool(), Resync: r.bool(), Final: r.bool(), TopoChanged: r.bool(),
		Term: r.uvarint(), Stat: r.stat(),
	}
	if r.present() {
		u.Feed = new(FeedPayload)
		u.Feed.decodeWire(r)
	}
	if r.present() {
		u.Summary = r.regionSummary()
	}
	u.Err = r.str()
	return u
}

func (p *FeedPayload) encodeWire(w *wireWriter) {
	w.uvarint(p.Epoch)
	w.bool(p.Full)
	w.f64(p.Now)
	w.f64(p.HalfLife)
	w.int(p.WindowLen)
	w.f64(p.WindowAge)
	w.f64(p.PollPeriod)
	w.uvarint(p.Term)
	if w.present(p.Topo != nil) {
		w.topo(p.Topo)
	}
	writeMap(w, p.Capacity, (*wireWriter).channelKey, (*wireWriter).f64)
	writeMap(w, p.Channels, (*wireWriter).channelKey, (*wireWriter).samples)
	writeMap(w, p.Loads, (*wireWriter).str, (*wireWriter).samples)
	w.health(p.Health)
}

func (p *FeedPayload) decodeWire(r *wireReader) {
	*p = FeedPayload{
		Epoch: r.uvarint(), Full: r.bool(), Now: r.f64(), HalfLife: r.f64(),
		WindowLen: r.int(), WindowAge: r.f64(), PollPeriod: r.f64(), Term: r.uvarint(),
	}
	if r.present() {
		p.Topo = r.topo()
	}
	p.Capacity = readMap(r, minChannelKey+1, (*wireReader).channelKey, (*wireReader).f64)
	p.Channels = readMap(r, minChannelKey+1, (*wireReader).channelKey, (*wireReader).samples)
	p.Loads = readMap(r, 2, (*wireReader).str, (*wireReader).samples)
	p.Health = r.health()
}

func (w *wireWriter) regionSummary(s *RegionSummary) {
	w.str(s.Region)
	w.uvarint(s.Epoch)
	w.uvarint(s.Term)
	w.f64(s.GeneratedAt)
	w.f64(s.MaxDataAge)
	writeSlice(w, s.Hosts, func(w *wireWriter, h RegionHost) {
		w.str(h.ID)
		w.f64(h.Power)
		w.f64(h.MemoryBytes)
		w.f64(h.AccessBps)
		w.f64(h.AvailableBps)
	})
	writeSlice(w, s.Borders, func(w *wireWriter, b RegionBorder) {
		w.str(b.ID)
		w.f64(b.InteriorBps)
	})
	writeSlice(w, s.Pairs, func(w *wireWriter, p RegionPair) {
		w.str(p.Peer)
		w.int(p.Links)
		w.f64(p.CapacityBps)
		w.f64(p.AvailableBps)
		w.int(p.HopCount)
		w.f64(p.LatencySec)
	})
}

func (r *wireReader) regionSummary() *RegionSummary {
	return &RegionSummary{
		Region: r.str(), Epoch: r.uvarint(), Term: r.uvarint(),
		GeneratedAt: r.f64(), MaxDataAge: r.f64(),
		Hosts: readSlice(r, minRegionHost, func(r *wireReader) RegionHost {
			return RegionHost{ID: r.str(), Power: r.f64(), MemoryBytes: r.f64(),
				AccessBps: r.f64(), AvailableBps: r.f64()}
		}),
		Borders: readSlice(r, minRegionBorder, func(r *wireReader) RegionBorder {
			return RegionBorder{ID: r.str(), InteriorBps: r.f64()}
		}),
		Pairs: readSlice(r, minRegionPair, func(r *wireReader) RegionPair {
			return RegionPair{Peer: r.str(), Links: r.int(), CapacityBps: r.f64(),
				AvailableBps: r.f64(), HopCount: r.int(), LatencySec: r.f64()}
		}),
	}
}

func (w *wireWriter) snapshot(s *telemetry.Snapshot) {
	writeMap(w, s.Counters, (*wireWriter).str, (*wireWriter).uvarint)
	writeMap(w, s.Gauges, (*wireWriter).str, (*wireWriter).f64)
	writeMap(w, s.Quantiles, (*wireWriter).str, func(w *wireWriter, q telemetry.QuantileSnapshot) {
		w.stat(q.Stat)
		w.uvarint(q.Count)
		w.int(q.Window)
	})
	writeSlice(w, s.Spans, func(w *wireWriter, sp telemetry.SpanRecord) {
		w.str(sp.Trace)
		w.str(sp.Name)
		w.time(sp.Start)
		w.int(int(sp.Duration))
		writeMap(w, sp.Attrs, (*wireWriter).str, (*wireWriter).str)
	})
	w.uvarint(s.SpansStarted)
	w.uvarint(s.SpansFinished)
}

func (r *wireReader) snapshot() *telemetry.Snapshot {
	return &telemetry.Snapshot{
		Counters: readMap(r, 2, (*wireReader).str, (*wireReader).uvarint),
		Gauges:   readMap(r, 2, (*wireReader).str, (*wireReader).f64),
		Quantiles: readMap(r, 1+minQuantile, (*wireReader).str, func(r *wireReader) telemetry.QuantileSnapshot {
			return telemetry.QuantileSnapshot{Stat: r.stat(), Count: r.uvarint(), Window: r.int()}
		}),
		Spans: readSlice(r, minSpanRecord, func(r *wireReader) telemetry.SpanRecord {
			return telemetry.SpanRecord{Trace: r.str(), Name: r.str(), Start: r.time(),
				Duration: time.Duration(r.int()),
				Attrs:    readMap(r, 2, (*wireReader).str, (*wireReader).str)}
		}),
		SpansStarted:  r.uvarint(),
		SpansFinished: r.uvarint(),
	}
}

func (w *wireWriter) time(t time.Time) {
	if t.IsZero() {
		w.uvarint(0)
		return
	}
	b, err := t.MarshalBinary()
	if err != nil { // a zone offset the binary form cannot hold
		b, _ = t.UTC().MarshalBinary()
	}
	w.uvarint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (r *wireReader) time() time.Time {
	var t time.Time
	if b := r.take(r.count(1)); len(b) > 0 {
		if err := t.UnmarshalBinary(b); err != nil {
			r.fail(fmt.Errorf("collector: bad time in wire frame: %w", err))
		}
	}
	return t
}

// marshalWire encodes m as one frame payload, version byte included.
func marshalWire(m wireMsg) []byte {
	w := wireWriter{b: []byte{wireVersion}}
	m.encodeWire(&w)
	return w.b
}

// unmarshalWire decodes one frame payload into m. Decoded strings and
// slices never alias b, so b may be reused as soon as it returns.
func unmarshalWire(b []byte, m wireMsg) error {
	var r wireReader
	return r.frame(b, m)
}

// frame is unmarshalWire on a reusable reader.
func (r *wireReader) frame(b []byte, m wireMsg) error {
	*r = wireReader{b: b}
	defer func() { r.b = nil }()
	if v := r.u8(); r.err == nil && v != wireVersion {
		return fmt.Errorf("%w %d (this build speaks %d)", ErrWireVersion, v, wireVersion)
	}
	m.decodeWire(r)
	if r.err == nil && len(r.b) > 0 {
		r.fail(fmt.Errorf("collector: %d trailing bytes in wire frame", len(r.b)))
	}
	if r.err != nil {
		return fmt.Errorf("collector: decoding frame: %w", r.err)
	}
	return nil
}

// EncodeFeedPayload encodes p exactly as a feed update carries it on the
// wire (version byte included): for tools and tests that store or
// replay replication payloads outside a connection.
func EncodeFeedPayload(p *FeedPayload) []byte { return marshalWire(p) }

// DecodeFeedPayload decodes what EncodeFeedPayload produced. It is
// total: arbitrary bytes yield an error, never a panic.
func DecodeFeedPayload(b []byte) (*FeedPayload, error) {
	p := new(FeedPayload)
	if err := unmarshalWire(b, p); err != nil {
		return nil, err
	}
	return p, nil
}
