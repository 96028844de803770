package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/collector"
	"repro/internal/federation"
	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/topology"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{1100, 99, 11, true},
		{20, 50, 10, true},
		{19, 50, 9, false},
		{10000, 99.9, 10, true},
		{0, 99, 0, false},
	} {
		if tc.n > 0 {
			if got := beyond(tc.n, tc.p); got != tc.beyond {
				t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.beyond)
			}
		}
		if got := supported(tc.n, tc.p); got != tc.ok {
			t.Errorf("supported(%d, %g) = %v, want %v", tc.n, tc.p, got, tc.ok)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	// Nearest rank: exactly ten values lie beyond the reported p99.
	if got := percentile(v, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(v, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	tl.add(outOK)
	tl.add(classify(fmt.Errorf("remote: %w", collector.ErrLoadShed))) // a refusal
	tl.add(outDropped)
	tl.add(outWrong)
	if tl[outRefused] != 1 || tl[outDropped] != 1 || tl[outWrong] != 1 {
		t.Fatalf("tally = %v, want one refusal, one drop, one wrong answer", tl)
	}
	if tl.attempted() != 4 || tl.failed() != 3 {
		t.Errorf("attempted %d failed %d, want 4 and 3", tl.attempted(), tl.failed())
	}
	if got := tl.failedFrac(); got != 0.75 {
		t.Errorf("failedFrac = %g, want 0.75", got)
	}
	if classify(nil) != outOK || classify(errors.New("boom")) != outError {
		t.Error("classify: nil must be ok and an untyped error an error")
	}
	for _, err := range []error{collector.ErrServerBusy, collector.ErrStaleReplica, collector.ErrDeadlineExceeded} {
		if classify(err) != outRefused {
			t.Errorf("classify(%v) is not a refusal", err)
		}
	}
	var empty tally
	if empty.failedFrac() != 0 {
		t.Error("failedFrac of nothing attempted must be 0")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: layerQuery, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerClientRPC, Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: layerClientRPC, Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Layer: layerClientRPC, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Layer: layerDispatch, Start: 12, End: 28},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 40 - 10, 2: 20 - 16, 3: 30, 4: 30, 5: 16} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestJoinParents(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: "a", Layer: layerClientRPC, Op: "util", Start: 0, End: 100},
		{ID: 2, Trace: "b", Layer: layerClientRPC, Op: "util", Start: 5, End: 100},
		{ID: 3, Trace: "a", Layer: layerDispatch, Op: "util", Start: 10, End: 90},
		{ID: 4, Trace: "b", Layer: layerDispatch, Op: "topo", Start: 20, End: 80},
		// A scalar source call carries no trace: it joins the dispatch of
		// the same op that contains it.
		{ID: 5, Layer: layerSource, Op: "util", Start: 30, End: 40},
		{ID: 6, Layer: layerSource, Op: "topo", Start: 30, End: 40},
		// Outside every dispatch: stays unjoined.
		{ID: 7, Layer: layerSource, Op: "util", Start: 95, End: 99},
	}
	joinParents(spans)
	for i, want := range []uint64{0, 0, 1, 2, 3, 4, 0} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent = %d, want %d", spans[i].ID, spans[i].Parent, want)
		}
	}
}

// TestSeedDeterminism builds every workload twice from one seed: the
// generated topology and op stream must be identical, and another seed
// must change the op stream.
func TestSeedDeterminism(t *testing.T) {
	ops := func(w *workload, seed int64) ([]opSpec, map[collector.ChannelKey]float64) {
		r, err := buildRig(w, seed, false)
		if err != nil {
			t.Fatalf("%s seed %d: %v", w.name, seed, err)
		}
		defer r.close()
		pl := newPlanner(r, seed)
		out := make([]opSpec, 200)
		for i := range out {
			out[i] = pl.next()
		}
		return out, r.caps
	}
	for _, w := range workloads {
		a, capsA := ops(w, 7)
		b, capsB := ops(w, 7)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(capsA, capsB) {
			t.Errorf("%s: seed 7 generated different inputs on two builds", w.name)
		}
		if c, _ := ops(w, 8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same op stream", w.name)
		}
	}
}

// bareSource implements only Source.
type bareSource struct{ collector.Source }

// TestDecoratorsKeepCapabilities wraps each kind of Source the
// workloads wrap and requires the wrapper to satisfy exactly the
// optional interfaces the wrapped source does.
func TestDecoratorsKeepCapabilities(t *testing.T) {
	r := &rig{}
	defer r.close()
	g := topology.Testbed()
	_, client, err := r.network(g)
	if err != nil {
		t.Fatal(err)
	}
	col, err := r.startCollector(client, g.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(warmupVirtual)
	srv, err := collector.Serve(col, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := collector.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	view := federation.NewView(federation.Config{
		Region: &federation.Region{Name: "r0", Src: col, RegionOf: func(graph.NodeID) string { return "r0" }, Clock: r.clk},
	})
	rep := replica.New(replica.Config{FeedAddr: srv.Addr()})

	b := newBoundary(layerSource, newTracer())
	for _, src := range []collector.Source{col, cl, view, rep} {
		w, err := wrapSource(src, b)
		if err != nil {
			t.Errorf("%T: %v", src, err)
			continue
		}
		if got, want := capsOf(w), capsOf(src); !slices.Equal(got, want) {
			t.Errorf("%T wrapped has capabilities %v, want %v", src, got, want)
		}
	}
	if _, err := wrapSource(bareSource{col}, b); err == nil {
		t.Error("wrapping a source with an unknown capability set must fail")
	}

	// The wrapper forwards and times.
	w, err := wrapSource(col, b)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := w.Topology()
	if err != nil {
		t.Fatal(err)
	}
	var key collector.ChannelKey
	for _, l := range topo.Graph.Links() {
		if key = topo.Key(l, graph.AtoB); key.Global != 0 {
			break
		}
	}
	want, _ := col.Utilization(key, historySpan)
	got, err := w.Utilization(key, historySpan)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("wrapped Utilization = %+v, %v; want %+v", got, err, want)
	}
	if n := len(b.durations("topo", "util")); n != 2 {
		t.Errorf("boundary timed %d calls, want 2", n)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's workload and
// metric lists in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	same := func(what string, js []metric, defs []metricDef) {
		if len(js) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", what, len(js), len(defs))
			return
		}
		for i, m := range js {
			if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s, %s), code %s (%s, %s)",
					what, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
