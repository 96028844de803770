package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Span layers, outermost first. Every span is recorded by this
// benchmark's own files around a call into one layer; nothing inside
// the program under test is instrumented for it.
const (
	layerQuery     = "query"            // the application's remos call (client Modeler or client Source)
	layerClientRPC = "client.rpc"       // decorator on the Source the client Modeler uses
	layerDispatch  = "server.dispatch"  // the server's own rpc span, read back from its registry
	layerAdmission = "server.admission" // queue wait inside server.dispatch (span attribute)
	layerMatrix    = "core.matrix"      // decorator on the server's matrix handler
	layerSource    = "server.source"    // decorator on the Source handed to the server
	layerPoll      = "collector.poll"   // the writer's clock advance (one poll period)
	layerSNMP      = "snmp.roundtrip"   // decorator on the collectors' SNMP transport
)

// layerOrder fixes the row order of the self-time table.
var layerOrder = []string{layerQuery, layerClientRPC, layerDispatch, layerAdmission,
	layerMatrix, layerSource, layerPoll, layerSNMP}

// callerLayer names the layer whose spans parent a span recorded
// without a caller context: the server side cannot see the client's
// span, only the trace ID the wire carries, and the server calls its
// Source's context-free methods for scalar ops, which carry nothing.
var callerLayer = map[string]string{
	layerDispatch: layerClientRPC,
	layerMatrix:   layerDispatch,
	layerSource:   layerDispatch,
}

// span is one finished span. Times are nanoseconds since the tracer's
// origin.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log (~100 B per span).
const maxSpans = 400000

// tracer holds the spans of one traced phase in memory until exit.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
	poll   atomic.Uint64 // ID of the collector.poll span in progress, 0 if none

	mu      sync.Mutex
	spans   []span
	dropped int
	floor   int64 // spans starting before this (set-up, warm-up) are not kept
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// open starts a span; close records it.
func (t *tracer) open(parent uint64, trace, layer, op string) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Trace: trace, Layer: layer, Op: op,
		Start: t.since(time.Now())}
}

func (t *tracer) close(s *span) {
	s.End = t.since(time.Now())
	t.add(*s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	switch {
	case s.Start < t.floor: // begun before the measured window
	case len(t.spans) < maxSpans:
		t.spans = append(t.spans, s)
	default:
		t.dropped++
	}
	t.mu.Unlock()
}

// reset drops everything recorded so far (set-up calls).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped, t.floor = t.spans[:0], 0, t.since(time.Now())
	t.mu.Unlock()
}

// snapshot returns the kept spans and how many the full log dropped.
func (t *tracer) snapshot() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

type spanKey struct{}

// withSpan returns ctx carrying span id as the parent of spans opened
// under it. The key is private to the benchmark and never crosses the
// wire; only the trace ID does.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// scrapeDispatch copies the server's rpc spans (kept in a 256-entry
// ring in its telemetry registry) into the tracer as server.dispatch
// spans, each with a server.admission child covering its queue wait.
// Call it often enough that the ring never wraps between calls; seen
// de-duplicates records still in the ring from the previous call.
func (t *tracer) scrapeDispatch(reg *telemetry.Registry, seen map[string]bool) {
	for _, rec := range reg.Spans() {
		if rec.Trace == "" || !strings.HasPrefix(rec.Name, "rpc.") {
			continue
		}
		key := rec.Trace + rec.Name + strconv.FormatInt(rec.Start.UnixNano(), 10)
		if seen[key] {
			continue
		}
		seen[key] = true
		start := t.since(rec.Start)
		d := span{ID: t.nextID.Add(1), Trace: rec.Trace, Layer: layerDispatch,
			Op: strings.TrimPrefix(rec.Name, "rpc."), Start: start, End: start + int64(rec.Duration)}
		t.add(d)
		if ms, err := strconv.ParseFloat(rec.Attrs["queue_wait_ms"], 64); err == nil {
			t.add(span{ID: t.nextID.Add(1), Parent: d.ID, Trace: rec.Trace, Layer: layerAdmission,
				Op: d.Op, Start: start, End: start + int64(ms*1e6)})
		}
	}
}

// joinParents gives each parentless span of a layer listed in
// callerLayer the caller-layer span that contains its interval, has the
// same trace ID when both carry one, and — for server.source, whose
// scalar calls carry no trace — serves the same op. Among several
// candidates (two clients' requests overlapping on the server) the one
// that started last wins.
func joinParents(spans []span) {
	byLayer := map[string][]int{}
	for i := range spans {
		byLayer[spans[i].Layer] = append(byLayer[spans[i].Layer], i)
	}
	for _, idx := range byLayer {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		caller, ok := callerLayer[s.Layer]
		if !ok || s.Parent != 0 {
			continue
		}
		cands := byLayer[caller]
		// Last candidate starting at or before s.
		k := sort.Search(len(cands), func(j int) bool { return spans[cands[j]].Start > s.Start }) - 1
		for ; k >= 0; k-- {
			c := &spans[cands[k]]
			if c.End < s.End {
				continue
			}
			if s.Trace != "" && c.Trace != "" && s.Trace != c.Trace {
				continue
			}
			if s.Layer == layerSource && s.Trace == "" && c.Op != s.Op {
				continue
			}
			s.Parent = c.ID
			break
		}
	}
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover, each child clipped to the parent and
// overlapping children counted once.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// layerRow is one row of the per-layer self-time table.
type layerRow struct {
	Layer    string
	Spans    int
	SelfMS   float64 // total self time
	SelfP50  float64 // median self time per span, µs
	Share    float64 // share of all self time
	Orphaned int     // spans whose caller could not be joined
}

// selfTimeTable aggregates self time by layer.
func selfTimeTable(spans []span) []layerRow {
	joinParents(spans)
	self := selfTimes(spans)
	per := map[string][]float64{}
	orphans := map[string]int{}
	var total float64
	for _, s := range spans {
		us := float64(self[s.ID]) / 1e3
		per[s.Layer] = append(per[s.Layer], us)
		total += us
		if _, ok := callerLayer[s.Layer]; ok && s.Parent == 0 {
			orphans[s.Layer]++
		}
	}
	var rows []layerRow
	for _, l := range layerOrder {
		v := per[l]
		if len(v) == 0 {
			continue
		}
		sort.Float64s(v)
		var sum float64
		for _, x := range v {
			sum += x
		}
		row := layerRow{Layer: l, Spans: len(v), SelfMS: sum / 1e3, SelfP50: percentile(v, 50), Orphaned: orphans[l]}
		if total > 0 {
			row.Share = sum / total
		}
		rows = append(rows, row)
	}
	return rows
}

func printSelfTimes(w io.Writer, rows []layerRow, queries int) {
	fmt.Fprintf(w, "  %-18s %8s %12s %14s %12s %7s %9s\n",
		"layer", "spans", "self_ms", "self_us/query", "self_p50_us", "share", "unjoined")
	for _, r := range rows {
		perQuery := 0.0
		if queries > 0 {
			perQuery = r.SelfMS * 1e3 / float64(queries)
		}
		fmt.Fprintf(w, "  %-18s %8d %12.1f %14.1f %12.1f %6.1f%% %9d\n",
			r.Layer, r.Spans, r.SelfMS, perQuery, r.SelfP50, 100*r.Share, r.Orphaned)
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
