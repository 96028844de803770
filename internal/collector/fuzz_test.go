package collector

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// frameBytes encodes v as one wire frame, for fuzz seeds.
func frameBytes(f *testing.F, v wireMsg) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, v, 0); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// addHostileFrames seeds the byte shapes every frame reader must refuse:
// a lying length prefix, an empty payload, a truncated payload, and a
// frame whose version byte this build does not speak.
func addHostileFrames(f *testing.F) {
	hostile := make([]byte, 4)
	binary.BigEndian.PutUint32(hostile, 0xFFFF_FFFF)
	f.Add(hostile)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 1, 2}) // truncated payload
	f.Add([]byte{0, 0, 0, 2, wireVersion + 1, 0})
}

// checkReencodes: a value the decoder accepted must encode again and
// decode to the same value.
func checkReencodes[T any, P interface {
	*T
	wireMsg
}](t *testing.T, v P) {
	var out bytes.Buffer
	if err := writeFrame(&out, v, 0); err != nil {
		t.Fatalf("accepted frame does not re-encode: %v (%+v)", err, v)
	}
	again := P(new(T))
	if err := readFrame(&out, again, 0); err != nil {
		t.Fatalf("re-encoded frame does not decode: %v", err)
	}
	if err := sameWire(v, again); err != nil {
		t.Fatalf("re-encoding changed the value: %v", err)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the wire-frame reader for both
// payloads of a call (request decode on the server, response decode on
// the client). Hostile input — garbage, lying length prefixes or
// element counts, truncation, an unknown version — must produce an
// error, never a panic and never an allocation beyond the frame cap.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(f, &request{Op: "util", Key: ChannelKey{Global: 3}, Span: 5, BudgetMS: 12.5}))
	f.Add(frameBytes(f, &request{Op: "topo"}))
	f.Add(frameBytes(f, &response{Stat: stats.Exact(42e6), Code: codeOK}))
	f.Add(frameBytes(f, &response{Err: "collector: load shed (retry after 50ms)", Code: codeShed, RetryAfterMS: 50}))
	addHostileFrames(f)
	f.Add(frameBytes(f, &response{
		Samples: []stats.Sample{{Time: 1, Value: 2}},
		Topo: &WireTopo{Nodes: []WireNode{{ID: "m-1"}, {ID: "m-2"}},
			Links: []WireLink{{A: "m-1", B: "m-2", Capacity: 1e8, Global: 1}}},
		Health:    map[string]AgentHealth{"m-1": {ConsecutiveFailures: 2}},
		Telemetry: &telemetry.Snapshot{Counters: map[string]uint64{"server.op.util": 9}},
	}))
	f.Add(frameBytes(f, &request{Op: "load", Node: "m-4", Span: math.Inf(1), TraceID: "t-1"}))

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		if err := readFrame(bytes.NewReader(data), &req, maxFrame); err == nil {
			checkReencodes(t, &req)
		}
		var resp response
		if err := readFrame(bytes.NewReader(data), &resp, maxFrame); err == nil {
			checkReencodes(t, &resp)
		}
	})
}

// FuzzReadMuxFrame is FuzzReadFrame for the multiplexed envelope: the
// shape both sides actually read. A hostile envelope — wild stream IDs,
// unknown kinds, nested garbage in the request/response/update arms —
// must error or decode to something that re-encodes to itself, never
// panic.
func FuzzReadMuxFrame(f *testing.F) {
	f.Add(frameBytes(f, &muxFrame{Stream: 1, Kind: mfRequest,
		Req: &request{Op: "util", Key: ChannelKey{Global: 3}, Span: 5, BudgetMS: 12.5}}))
	f.Add(frameBytes(f, &muxFrame{Stream: 2, Kind: mfRequest,
		Req: &request{Op: "watch", Watch: &WatchRequest{Kind: WatchUtil, Key: ChannelKey{Global: 1}, Span: 5, Threshold: 1e6}}}))
	f.Add(frameBytes(f, &muxFrame{Stream: 2, Kind: mfResponse,
		Resp: &response{Err: "collector: too many subscriptions", Code: codeWatchLimit}}))
	f.Add(frameBytes(f, &muxFrame{Stream: 2, Kind: mfUpdate,
		Update: &WatchUpdate{Seq: 7, Epoch: 41, Overflowed: true, Stat: stats.Exact(42e6)}}))
	f.Add(frameBytes(f, &muxFrame{Stream: 9, Kind: mfUpdate, Update: &WatchUpdate{Final: true}}))
	f.Add(frameBytes(f, &muxFrame{Stream: 2, Kind: mfCancel}))
	addHostileFrames(f)
	f.Add(frameBytes(f, &muxFrame{Stream: 3, Kind: mfUpdate, Update: &WatchUpdate{Seq: 1, Epoch: 5, Term: 2,
		Feed: &FeedPayload{Epoch: 5, Full: true, Now: 10, WindowLen: 64, PollPeriod: 2,
			Topo:     &WireTopo{Nodes: []WireNode{{ID: "a"}, {ID: "b"}}, Links: []WireLink{{A: "a", B: "b", Capacity: 1e8, Global: 1}}},
			Capacity: map[ChannelKey]float64{{Global: 1}: 1e8},
			Channels: map[ChannelKey][]stats.Sample{{Global: 1}: {{Time: 9, Value: 3e6}}},
			Loads:    map[string][]stats.Sample{"a": {{Time: 9, Value: 0.5}}},
			Health:   map[string]AgentHealth{"a": {}}}}}))
	f.Add(frameBytes(f, &muxFrame{Stream: 4, Kind: mfUpdate, Update: &WatchUpdate{Seq: 1, Epoch: 6,
		Summary: &RegionSummary{Region: "r0", Epoch: 6, GeneratedAt: 10,
			Hosts:   []RegionHost{{ID: "h", Power: 1, AccessBps: 1e9, AvailableBps: 5e8}},
			Borders: []RegionBorder{{ID: "b", InteriorBps: 4e9}},
			Pairs:   []RegionPair{{Peer: "r1", Links: 2, CapacityBps: 2e9, HopCount: 3, LatencySec: 0.001}}}}}))
	f.Add(frameBytes(f, &muxFrame{Stream: 5, Kind: mfResponse, Resp: &response{Term: 2, Leader: true,
		Matrix: &MatrixAnswer{Bandwidth: [][]float64{{math.Inf(1), 5e6}, {5e6, math.Inf(1)}},
			Latency: [][]float64{{0, 1e-3}, {1e-3, 0}}, Valid: [][]bool{{true, true}, {true, true}}, Epoch: 4}}}))
	f.Add(frameBytes(f, &muxFrame{Stream: 6, Kind: mfRequest, Req: &request{Op: "matrix",
		Matrix: &MatrixRequest{Srcs: []graph.NodeID{"a"}, Dsts: []graph.NodeID{"b", "c"}, TFKind: 2, Span: 10}}}))

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var mf muxFrame
		if err := readFrame(bytes.NewReader(data), &mf, maxFrame); err == nil {
			checkReencodes(t, &mf)
		}
	})
}
