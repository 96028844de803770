package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// sameWire reports how got differs from want under the wire codec's
// equality: floats compare by bit pattern (so NaN equals the same NaN
// and -0 differs from +0), times by instant, and a zero-length slice or
// map in want must come back nil.
func sameWire(want, got any) error {
	return sameValue(reflect.ValueOf(want), reflect.ValueOf(got))
}

var timeType = reflect.TypeOf(time.Time{})

// sameValue compares a and b; an error names the path to the first
// difference, built on the way back up so equal values cost no
// formatting.
func sameValue(a, b reflect.Value) error {
	if a.Type() != b.Type() {
		return fmt.Errorf(": type %v vs %v", a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf(": %v vs %v", a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf(": %d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Errorf(": %d vs %d", a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Errorf(": %v vs %v", a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Errorf(": %q vs %q", a.String(), b.String())
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Errorf(": nil %v vs %v", a.IsNil(), b.IsNil())
		}
		if !a.IsNil() {
			return sameValue(a.Elem(), b.Elem())
		}
	case reflect.Slice, reflect.Map:
		if a.Len() == 0 {
			if !b.IsNil() {
				return errors.New(": zero-length value decoded non-nil")
			}
			return nil
		}
		if a.Len() != b.Len() {
			return fmt.Errorf(": len %d vs %d", a.Len(), b.Len())
		}
		if a.Kind() == reflect.Slice {
			for i := 0; i < a.Len(); i++ {
				if err := sameValue(a.Index(i), b.Index(i)); err != nil {
					return fmt.Errorf("[%d]%w", i, err)
				}
			}
			return nil
		}
		it := a.MapRange()
		for it.Next() {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Errorf("[%v]: missing", it.Key())
			}
			if err := sameValue(it.Value(), bv); err != nil {
				return fmt.Errorf("[%v]%w", it.Key(), err)
			}
		}
	case reflect.Struct:
		if a.Type() == timeType {
			ta, tb := a.Interface().(time.Time), b.Interface().(time.Time)
			if !ta.Equal(tb) {
				return fmt.Errorf(": %v vs %v", ta, tb)
			}
			return nil
		}
		for i := 0; i < a.NumField(); i++ {
			if err := sameValue(a.Field(i), b.Field(i)); err != nil {
				return fmt.Errorf(".%s%w", a.Type().Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf(": kind %v has no wire equality", a.Kind())
	}
	return nil
}

// roundTrip sends v through writeFrame/readFrame into a fresh value of
// its type and checks the result.
func roundTrip[T any, P interface {
	*T
	wireMsg
}](t *testing.T, v P) P {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, v, 0); err != nil {
		t.Fatalf("encode %+v: %v", v, err)
	}
	got := P(new(T))
	if err := readFrame(&buf, got, 0); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := sameWire(v, got); err != nil {
		t.Fatalf("round trip changed the value: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after one frame", buf.Len())
	}
	return got
}

// Edge values every kind of field is drawn from.
var (
	edgeFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300, 42e6}
	edgeInts    = []int64{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64, 1 << 40}
	edgeUints   = []uint64{0, 1, 127, 128, math.MaxUint64, 1 << 35}
	edgeStrings = []string{"", "x", "util", "glink7/AtoB", "ünïcødé ✓", string(make([]byte, 300))}
)

// fillRandom sets every field reachable from v to a random edge value:
// pointers nil or set, slices and maps nil, empty or populated. Any
// field the codec forgets to carry then fails the round trip.
func fillRandom(rng *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(edgeInts[rng.Intn(len(edgeInts))])
	case reflect.Uint64:
		v.SetUint(edgeUints[rng.Intn(len(edgeUints))])
	case reflect.Float64:
		if rng.Intn(3) == 0 {
			v.SetFloat(rng.NormFloat64() * 1e9)
		} else {
			v.SetFloat(edgeFloats[rng.Intn(len(edgeFloats))])
		}
	case reflect.String:
		v.SetString(edgeStrings[rng.Intn(len(edgeStrings))])
	case reflect.Pointer:
		if depth > 0 && rng.Intn(3) != 0 {
			p := reflect.New(v.Type().Elem())
			fillRandom(rng, p.Elem(), depth-1)
			v.Set(p)
		}
	case reflect.Slice:
		switch n := rng.Intn(5); {
		case n == 0 || depth == 0:
		case n == 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			s := reflect.MakeSlice(v.Type(), n-1, n-1)
			for i := 0; i < n-1; i++ {
				fillRandom(rng, s.Index(i), depth-1)
			}
			v.Set(s)
		}
	case reflect.Map:
		switch n := rng.Intn(5); {
		case n == 0 || depth == 0:
		case n == 1:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			m := reflect.MakeMap(v.Type())
			for i := 0; i < n-1; i++ {
				k := reflect.New(v.Type().Key()).Elem()
				fillRandom(rng, k, depth-1)
				e := reflect.New(v.Type().Elem()).Elem()
				fillRandom(rng, e, depth-1)
				m.SetMapIndex(k, e)
			}
			v.Set(m)
		}
	case reflect.Struct:
		if v.Type() == timeType {
			switch rng.Intn(3) {
			case 0:
			case 1:
				v.Set(reflect.ValueOf(time.Unix(rng.Int63n(1<<34), rng.Int63n(1e9)).UTC()))
			default:
				v.Set(reflect.ValueOf(time.Unix(rng.Int63n(1<<34), rng.Int63n(1e9))))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i), depth)
		}
	default:
		panic(fmt.Sprintf("fillRandom: unhandled kind %v at %v", v.Kind(), v.Type()))
	}
}

// TestWireRoundTripProperty: random envelopes — every request, response,
// watch-update, feed, summary, telemetry and matrix field populated from
// edge values — survive the codec exactly.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var f muxFrame
		fillRandom(rng, reflect.ValueOf(&f).Elem(), 4)
		roundTrip(t, &f)
	}
	for i := 0; i < 200; i++ {
		var p FeedPayload
		fillRandom(rng, reflect.ValueOf(&p).Elem(), 4)
		got, err := DecodeFeedPayload(EncodeFeedPayload(&p))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameWire(&p, got); err != nil {
			t.Fatalf("feed payload: %v", err)
		}
	}
}

// TestWireRoundTripEveryOp: each op's request, each response payload,
// and watch updates carrying a Stat, a feed payload, and a region
// summary, with edge values in every payload.
func TestWireRoundTripEveryOp(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	key := ChannelKey{Global: 1 << 20, Dir: graph.BtoA}
	requests := []*request{
		{Op: "topo"},
		{Op: "util", Key: key, Span: 10, BudgetMS: 43.5, TraceID: "t-1"},
		{Op: "samples", Key: key},
		{Op: "load", Node: "m-4", Span: inf},
		{Op: "age", Key: ChannelKey{Global: -1}},
		{Op: "health"},
		{Op: "stats"},
		{Op: "ping"},
		{Op: "watch", Watch: &WatchRequest{}},
		{Op: "watch", Watch: &WatchRequest{Kind: WatchUtil, Key: key, Span: 5, Threshold: nan}},
		{Op: "watch", Watch: &WatchRequest{Kind: WatchLoad, Node: "", Span: -inf}},
		{Op: "watch", Watch: &WatchRequest{Kind: WatchFeed}},
		{Op: "watch", Watch: &WatchRequest{Kind: WatchRegionSummary}},
		{Op: "matrix", Matrix: &MatrixRequest{Srcs: []graph.NodeID{"a", ""}, Dsts: []graph.NodeID{"b"}, TFKind: 3, Horizon: 30}},
		{Op: "matrix", Matrix: &MatrixRequest{Srcs: []graph.NodeID{}, Dsts: nil}},
		{Op: ""},
	}
	for _, q := range requests {
		roundTrip(t, &muxFrame{Stream: math.MaxUint64, Kind: mfRequest, Req: q})
	}

	stat := stats.Stat{Min: -inf, Q1: 0, Median: nan, Q3: math.Copysign(0, -1), Max: inf,
		Accuracy: 1, Samples: math.MaxInt64, Age: math.SmallestNonzeroFloat64}
	topo := &WireTopo{
		Nodes:        []WireNode{{ID: "m-1", Kind: 0, InternalBW: inf, ComputePower: 1, MemoryBytes: 1 << 33}, {}},
		Links:        []WireLink{{A: "m-1", B: "", Capacity: 100e6, Latency: nan, Global: -3}},
		DiscoveredAt: 12.5,
	}
	snap := telemetry.Snapshot{
		Counters:  map[string]uint64{"server.op.util": math.MaxUint64, "": 0},
		Gauges:    map[string]float64{"g": nan},
		Quantiles: map[string]telemetry.QuantileSnapshot{"q": {Stat: stat, Count: 3, Window: 1024}},
		Spans: []telemetry.SpanRecord{
			{Trace: "t", Name: "rpc.util", Start: time.Unix(1700000000, 123).UTC(), Duration: 3 * time.Millisecond,
				Attrs: map[string]string{"verdict": "admitted", "queue_wait_ms": ""}},
			{Attrs: map[string]string{}},
		},
		SpansStarted: 9, SpansFinished: 8,
	}
	responses := []*response{
		{},
		{Stat: stat},
		{Samples: []stats.Sample{{Time: 1, Value: nan}, {Time: inf, Value: -inf}}},
		{Samples: []stats.Sample{}},
		{Topo: topo},
		{Topo: &WireTopo{}},
		{Age: inf},
		{Health: map[string]AgentHealth{"m-1": {State: HealthState(2), ConsecutiveFailures: 7,
			LastSuccess: -1, LastAttempt: 3, NextAttempt: nan, Skipped: math.MaxUint64}, "": {}}},
		{Health: map[string]AgentHealth{}},
		{Telemetry: &snap},
		{Telemetry: &telemetry.Snapshot{Counters: map[string]uint64{}}},
		{Matrix: &MatrixAnswer{
			Bandwidth: [][]float64{{inf, 5e6}, {7e6, inf}},
			Latency:   [][]float64{{0, nan}, {1e-3, 0}},
			Valid:     [][]bool{{true, false}, {true, true}},
			Epoch:     math.MaxUint64, Term: 1,
		}},
		{Matrix: &MatrixAnswer{Bandwidth: [][]float64{{}}, Valid: [][]bool{}}},
		{Err: "collector: load shed (retry after 50ms)", Code: codeShed, RetryAfterMS: 50},
		{Err: "not leader", Code: codeNotLeader, LeaderHint: "127.0.0.1:7171", Term: 1 << 62, Leader: false},
		{Code: -1, Term: 3, Leader: true},
	}
	for _, p := range responses {
		roundTrip(t, &muxFrame{Stream: 1, Kind: mfResponse, Resp: p})
	}

	feed := &FeedPayload{
		Epoch: 7, Full: true, Now: 100, HalfLife: inf, WindowLen: 64, WindowAge: nan, PollPeriod: 2, Term: 3,
		Topo:     topo,
		Capacity: map[ChannelKey]float64{key: 100e6, {}: nan},
		Channels: map[ChannelKey][]stats.Sample{key: {{Time: 1, Value: 2}}, {Global: 2}: {}},
		Loads:    map[string][]stats.Sample{"m-1": {{Time: 1, Value: 0.5}}, "": nil},
		Health:   map[string]AgentHealth{"m-1": {}},
	}
	summary := &RegionSummary{
		Region: "r0", Epoch: 9, Term: 0, GeneratedAt: 5, MaxDataAge: inf,
		Hosts:   []RegionHost{{ID: "h", Power: 1, MemoryBytes: nan, AccessBps: 1e9, AvailableBps: -inf}},
		Borders: []RegionBorder{{ID: "", InteriorBps: 4e9}},
		Pairs:   []RegionPair{{Peer: "r1", Links: 3, CapacityBps: 3e9, AvailableBps: 1e9, HopCount: -1, LatencySec: 0.002}},
	}
	updates := []*WatchUpdate{
		{Seq: 1, Epoch: 2, Stat: stat},
		{Seq: 7, Epoch: 41, Overflowed: true, Resync: true, TopoChanged: true, Term: 2, Err: "collector: unknown channel"},
		{Final: true},
		{Seq: 1, Epoch: 7, Term: 3, Feed: feed},
		{Seq: 2, Epoch: 8, Feed: &FeedPayload{Epoch: 8, Channels: map[ChannelKey][]stats.Sample{}}},
		{Seq: 1, Epoch: 9, Summary: summary},
		{Seq: 2, Epoch: 10, Summary: &RegionSummary{Hosts: []RegionHost{}}},
	}
	for _, u := range updates {
		roundTrip(t, &muxFrame{Stream: 2, Kind: mfUpdate, Update: u})
	}
	roundTrip(t, &muxFrame{Stream: 2, Kind: mfCancel})
}

// TestWireLargeCounts: counts past the one- and two-byte uvarint range
// round-trip, and a count that claims more elements than the frame
// holds fails before allocating.
func TestWireLargeCounts(t *testing.T) {
	samples := make([]stats.Sample, 100_000)
	for i := range samples {
		samples[i] = stats.Sample{Time: float64(i), Value: float64(i) * 1e3}
	}
	counters := make(map[string]uint64, 5000)
	for i := 0; i < 5000; i++ {
		counters[fmt.Sprintf("c%d", i)] = uint64(i) << 40
	}
	n := 130
	bw := make([][]float64, n)
	valid := make([][]bool, n)
	for i := range bw {
		bw[i] = make([]float64, n)
		valid[i] = make([]bool, n)
		bw[i][i] = math.Inf(1)
		valid[i][i] = true
	}
	roundTrip(t, &muxFrame{Stream: 1, Kind: mfResponse, Resp: &response{
		Samples:   samples,
		Telemetry: &telemetry.Snapshot{Counters: counters},
		Matrix:    &MatrixAnswer{Bandwidth: bw, Latency: bw, Valid: valid},
	}})

	// A samples count of 2^40 in a frame of a few bytes.
	w := wireWriter{b: []byte{wireVersion}}
	w.str("")
	w.stat(stats.Stat{})
	w.uvarint(1 << 40)
	var resp response
	if err := unmarshalWire(w.b, &resp); !errors.Is(err, errWireTruncated) {
		t.Fatalf("lying count: got %v, want errWireTruncated", err)
	}
}

// TestWireVersionRefused: a frame with a version byte this build does
// not speak is refused with the typed ErrWireVersion.
func TestWireVersionRefused(t *testing.T) {
	b := marshalWire(&muxFrame{Stream: 1, Kind: mfRequest, Req: &request{Op: "ping"}})
	b[0] = wireVersion + 1
	var f muxFrame
	err := unmarshalWire(b, &f)
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("got %v, want ErrWireVersion", err)
	}
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, byte(len(b))})
	buf.Write(b)
	if err := readFrame(&buf, &f, 0); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("readFrame: got %v, want ErrWireVersion", err)
	}
}

// TestWireVersionDropsConn: a server that reads a wrong-version frame
// answers with the refusal frame and drops that connection, without
// answering or decoding the well-formed frame queued behind it, and
// keeps serving other connections.
func TestWireVersionDropsConn(t *testing.T) {
	srv, err := ServeConfig(&fakeSource{}, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var out bytes.Buffer
	if err := writeFrame(&out, &muxFrame{Stream: 1, Kind: mfRequest, Req: &request{Op: "ping"}}, 0); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), out.Bytes()...)
	bad[4] = wireVersion + 1
	out.Reset()
	out.Write(bad)
	if err := writeFrame(&out, &muxFrame{Stream: 2, Kind: mfRequest, Req: &request{Op: "util", Key: ChannelKey{Global: 1}}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got [len(wireRefusal)]byte
	if _, err := io.ReadFull(conn, got[:]); err != nil || got != wireRefusal {
		t.Fatalf("want the refusal frame % x, got % x (%v)", wireRefusal, got, err)
	}
	var f muxFrame
	if err := readFrame(conn, &f, 0); err == nil {
		t.Fatalf("server answered after a wrong-version frame: stream %d kind %d", f.Stream, f.Kind)
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !isConnReset(err) {
		t.Fatalf("want the connection dropped, got %v", err)
	}

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Utilization(ChannelKey{Global: 1}, 5); err != nil {
		t.Fatalf("server stopped serving after a wrong-version peer: %v", err)
	}
}

// TestClientWireVersionRefusal: a client whose server speaks another
// version reads that server's refusal frame, fails the call with
// ErrWireVersion, and does not dial again to retry it.
func TestClientWireVersionRefusal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				// A server one version ahead: it reads a whole frame,
				// answers with its refusal and drops the connection.
				defer conn.Close()
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					return
				}
				if _, err := io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[:]))); err != nil {
					return
				}
				refusal := wireRefusal
				refusal[4] = wireVersion + 1
				conn.Write(refusal[:])
			}()
		}
	}()

	cli, err := DialConfig(ln.Addr().String(), ClientConfig{CallTimeout: 5 * time.Second, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("got %v, want ErrWireVersion", err)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want 1 (no retry after a version refusal)", n)
	}
}

func isConnReset(err error) bool {
	var ne *net.OpError
	return errors.As(err, &ne) && !ne.Timeout()
}

// TestWireUtilFrameSize: the hottest remote op, a util query, stays
// within 100 bytes per frame each way, prefix included, even when every
// float in it needs all eight bytes.
func TestWireUtilFrameSize(t *testing.T) {
	v := func(x float64) float64 { return x * (1 + math.Pi*1e-9) }
	for _, f := range []*muxFrame{
		{Stream: 1 << 20, Kind: mfRequest, Req: &request{Op: "util", Key: ChannelKey{Global: 300, Dir: graph.BtoA},
			Span: v(10), BudgetMS: v(4999), TraceID: "0123456789abcdef"}},
		{Stream: 1 << 20, Kind: mfResponse, Resp: &response{Stat: stats.Stat{Min: v(1e6), Q1: v(2e6), Median: v(3e6),
			Q3: v(4e6), Max: v(5e6), Accuracy: v(0.9), Samples: 10, Age: v(1.5)}, Term: 7}},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, f, 0); err != nil {
			t.Fatal(err)
		}
		if buf.Len() > 100 {
			t.Errorf("util frame kind %d is %d bytes, want <= 100", f.Kind, buf.Len())
		}
	}
}
