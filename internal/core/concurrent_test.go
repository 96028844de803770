package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// checkGraph asserts that a remos_get_graph answer is internally
// consistent: built from exactly one snapshot (every link endpoint
// resolves in the same answer's node list) with ordered quartiles.
func checkGraph(g *Graph) error {
	if g.Epoch == 0 {
		return fmt.Errorf("graph answer with zero epoch")
	}
	for i := range g.Links {
		l := &g.Links[i]
		if g.Node(l.A) == nil || g.Node(l.B) == nil {
			return fmt.Errorf("epoch %d: link %s--%s references a node missing from the same answer (mixed snapshots?)",
				g.Epoch, l.A, l.B)
		}
		for _, st := range []struct {
			name string
			v    interface{ Ordered() bool }
		}{
			{"capacity", l.Capacity}, {"avail[0]", l.Avail[0]},
			{"avail[1]", l.Avail[1]}, {"latency", l.Latency},
		} {
			if !st.v.Ordered() {
				return fmt.Errorf("epoch %d: link %s--%s %s quartiles out of order: %+v",
					g.Epoch, l.A, l.B, st.name, st.v)
			}
		}
	}
	return nil
}

// TestConcurrentQueriesConsistentSnapshots hammers the read path from
// many goroutines while another goroutine repeatedly calls Refresh. Run
// under -race this exercises the lock-free snapshot/memo/plan machinery;
// the assertions check that every answer is built from exactly one
// epoch-consistent snapshot with ordered quartiles, and that the epochs
// one goroutine observes never go backwards.
func TestConcurrentQueriesConsistentSnapshots(t *testing.T) {
	r := testbedRig(t)
	traffic.Blast(r.net, "m-6", "m-8", 60e6)
	r.clk.RunUntil(30)

	const (
		workers = 8
		iters   = 150
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tfs := []Timeframe{TFHistory(10), TFCurrent(), TFCapacity()}
			var lastEpoch uint64
			for i := 0; i < iters; i++ {
				tf := tfs[(i+w)%len(tfs)]
				switch (i + w) % 4 {
				case 0, 1:
					g, err := r.mod.GetGraphCtx(ctx, nil, tf)
					if err != nil {
						errs <- err
						return
					}
					if err := checkGraph(g); err != nil {
						errs <- err
						return
					}
					if g.Epoch < lastEpoch {
						errs <- fmt.Errorf("worker %d: epoch went backwards: %d after %d", w, g.Epoch, lastEpoch)
						return
					}
					lastEpoch = g.Epoch
				case 2:
					fi, err := r.mod.QueryFlowInfoCtx(ctx,
						[]Flow{{Src: "m-1", Dst: "m-7", Kind: FixedFlow, Bandwidth: 2e6}},
						[]Flow{{Src: "m-2", Dst: "m-7", Kind: VariableFlow, Bandwidth: 1}},
						[]Flow{{Src: "m-4", Dst: "m-8", Kind: IndependentFlow}},
						tf)
					if err != nil {
						errs <- err
						return
					}
					if fi.Epoch == 0 {
						errs <- fmt.Errorf("worker %d: flow answer with zero epoch", w)
						return
					}
					for _, fr := range fi.All() {
						if !fr.Bandwidth.Ordered() {
							errs <- fmt.Errorf("worker %d: flow bandwidth quartiles out of order: %+v", w, fr.Bandwidth)
							return
						}
					}
				case 3:
					st, err := r.mod.AvailableBandwidthCtx(ctx, "m-4", "m-7", tf)
					if err != nil {
						errs <- err
						return
					}
					if !st.Ordered() {
						errs <- fmt.Errorf("worker %d: bandwidth quartiles out of order: %+v", w, st)
						return
					}
				}
			}
		}(w)
	}
	// Churn snapshots while the queries run: every Refresh forces a new
	// epoch, plan cache, and availability memo.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			r.mod.Refresh()
			r.mod.RegisterSelfFlow("m-1", "m-5", 1e5)
			r.mod.ClearSelfFlows()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAvailMemoHitsAndInvalidation pins the availability-memo contract:
// identical queries between poll ticks share memoized channel stats
// (hits, bit-identical answers), and new data — a poll tick — invalidates
// the memo so answers track the network again.
func TestAvailMemoHitsAndInvalidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, topology.Testbed(), func(c *Config) { c.Telemetry = reg })
	traffic.Blast(r.net, "m-6", "m-8", 60e6)
	r.clk.RunUntil(30)

	hits := reg.Counter("modeler.avail_memo_hits")
	misses := reg.Counter("modeler.avail_memo_misses")

	g1, err := r.mod.GetGraph(nil, TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	if misses.Value() == 0 {
		t.Fatal("first query should miss the memo")
	}
	h0, m0 := hits.Value(), misses.Value()

	g2, err := r.mod.GetGraph(nil, TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	if hits.Value() <= h0 {
		t.Fatalf("repeat query should hit the memo (hits %d -> %d)", h0, hits.Value())
	}
	if misses.Value() != m0 {
		t.Fatalf("repeat query should not recompute (misses %d -> %d)", m0, misses.Value())
	}
	if g1.Epoch != g2.Epoch {
		t.Fatalf("same snapshot expected: epochs %d vs %d", g1.Epoch, g2.Epoch)
	}
	for i := range g1.Links {
		if g1.Links[i] != g2.Links[i] {
			t.Fatalf("memoized answers differ at link %d:\n%+v\n%+v", i, g1.Links[i], g2.Links[i])
		}
	}

	// A poll tick bumps the source's data version: the memo generation
	// must be dropped, not served stale.
	r.clk.RunUntil(31)
	m1 := misses.Value()
	if _, err := r.mod.GetGraph(nil, TFHistory(10)); err != nil {
		t.Fatal(err)
	}
	if misses.Value() <= m1 {
		t.Fatal("query after new data should recompute, not serve the stale memo")
	}

	// Registering a self flow also invalidates (DiscountSelf bakes self
	// traffic into memoized availabilities).
	m2 := misses.Value()
	r.mod.RegisterSelfFlow("m-1", "m-5", 1e5)
	if _, err := r.mod.GetGraph(nil, TFHistory(10)); err != nil {
		t.Fatal(err)
	}
	if misses.Value() <= m2 {
		t.Fatal("query after self-flow registration should recompute")
	}
}

// TestSnapshotEpochGauge pins the epoch telemetry: the gauge tracks the
// installed snapshot and Refresh starts a new epoch.
func TestSnapshotEpochGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, topology.Testbed(), func(c *Config) { c.Telemetry = reg })
	r.clk.RunUntil(5)

	if _, err := r.mod.GetGraph(nil, TFCapacity()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("modeler.snapshot_epoch").Value(); got != 1 {
		t.Fatalf("snapshot_epoch after first query = %v, want 1", got)
	}
	r.mod.Refresh()
	g, err := r.mod.GetGraph(nil, TFCapacity())
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("modeler.snapshot_epoch").Value(); got != 2 {
		t.Fatalf("snapshot_epoch after Refresh = %v, want 2", got)
	}
	if g.Epoch != 2 {
		t.Fatalf("answer epoch after Refresh = %d, want 2", g.Epoch)
	}
	if got := reg.Counter("modeler.topo_fetches").Value(); got != 2 {
		t.Fatalf("topo_fetches = %d, want 2", got)
	}
}

// TestQuerySpanAndCacheAge pins the query-path telemetry: each query
// commits one span (balanced in the started/finished ledger) and one
// latency observation, a failed query's span carries the error, memo
// counts land once the query returns, and the topology cache age is
// computed when read.
func TestQuerySpanAndCacheAge(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, topology.Testbed(), func(c *Config) { c.Telemetry = reg })
	r.clk.RunUntil(30)

	if got := reg.Snapshot().Gauges["modeler.topo_cache_age_s"]; got != 0 {
		t.Fatalf("cache age before any fetch = %v, want 0", got)
	}
	if _, err := r.mod.GetGraph(nil, TFHistory(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mod.GetGraph([]graph.NodeID{"no-such-host"}, TFHistory(10)); err == nil {
		t.Fatal("query for an unknown node succeeded")
	}

	var ok, failed int
	for _, rec := range reg.Spans() {
		if rec.Name != "query.getgraph" || rec.Trace == "" || rec.Start.IsZero() || rec.Duration <= 0 {
			t.Errorf("malformed query span: %+v", rec)
			continue
		}
		if msg := rec.Attrs["error"]; msg != "" {
			if !strings.Contains(msg, "no-such-host") {
				t.Errorf("error attr = %q, want the query's error", msg)
			}
			failed++
		} else {
			ok++
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("query spans: %d ok, %d failed; want 1 and 1", ok, failed)
	}
	if started, finished := reg.SpanCounts(); started != 2 || finished != 2 {
		t.Errorf("span ledger %d/%d, want 2/2", started, finished)
	}
	if got := reg.Quantile("modeler.getgraph_ms", 0).Count(); got != 2 {
		t.Errorf("getgraph_ms observations = %d, want 2", got)
	}
	if reg.Counter("modeler.avail_memo_misses").Value() == 0 {
		t.Error("first query's memo misses not published")
	}
	age := reg.Snapshot().Gauges["modeler.topo_cache_age_s"]
	if age <= 0 || age > 60 {
		t.Errorf("cache age after a fetch = %v s, want a small positive age", age)
	}
}
