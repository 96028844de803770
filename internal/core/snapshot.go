package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
)

// Lock-free topology snapshots: the Modeler's read side.
//
// A snapshot freezes everything a query needs — the discovered topology,
// its route table, per-channel slot assignments — behind one atomic
// pointer. Readers Load it and never take a lock; Refresh (or the first
// query after it) installs a fresh snapshot under the next epoch. Each
// snapshot carries two derived, lazily built, lock-free structures:
//
//   - an availability memo: per (timeframe, channel) Stats computed at
//     most once per source data version (collector.VersionedSource), so
//     a burst of queries between poll ticks shares one summary per
//     channel instead of re-deriving quartiles per query;
//   - a plan cache: the logical-topology skeleton remos_get_graph
//     derives for a node set (route induction + chain collapsing, §4.3)
//     is purely topological, so it is built once per (epoch, node set)
//     and every query replays it against memoized availabilities.
type snapshot struct {
	epoch   uint64
	topo    *collector.Topology
	rt      *graph.RouteTable
	fetched time.Time // wall time of the topology fetch

	// nodeSlot assigns every topology node a dense index into tfMemo
	// load arrays; chanSlots is the length of the channel arrays
	// (2 slots per link, indexed linkID*2 + dir).
	nodeSlot  map[graph.NodeID]int
	chanSlots int

	// memoOK gates the availability memo: it needs a versioned source
	// (collector.VersionedSource) to know when measurements may have
	// changed. Unversioned sources (the TCP client) skip memoization.
	memoOK bool
	memo   atomic.Pointer[availMemo]

	plans atomic.Pointer[planMap]

	// sweeps caches compiled per-source matrix sweeps (matrix.go):
	// graph.NodeID -> *compiledSweep. Topology and routing are frozen
	// per snapshot, so a source's sweep compiles once and serves every
	// matrix until the epoch moves.
	sweeps sync.Map
}

func newSnapshot(epoch uint64, topo *collector.Topology, rt *graph.RouteTable, memoOK bool) *snapshot {
	s := &snapshot{epoch: epoch, topo: topo, rt: rt, fetched: time.Now(), memoOK: memoOK}
	ids := topo.Graph.Nodes()
	s.nodeSlot = make(map[graph.NodeID]int, len(ids))
	for i, id := range ids {
		s.nodeSlot[id] = i
	}
	maxID := -1
	for _, l := range topo.Graph.Links() {
		if int(l.ID) > maxID {
			maxID = int(l.ID)
		}
	}
	s.chanSlots = (maxID + 1) * 2
	return s
}

// availMemo is one generation of memoized per-timeframe answers, valid
// for exactly one combined data version (source version + self-flow
// generation). When the version moves the whole generation is dropped
// and rebuilt — there is no per-entry invalidation to race on.
type availMemo struct {
	version uint64
	tfs     atomic.Pointer[[]*tfMemo]
}

// tfMemo holds the memoized stats of one timeframe: dense arrays of
// atomically published Stats (nil = not computed yet). A hit is a Load;
// on a miss two goroutines may race to compute and publish the same
// entry, but both derive it from the same frozen version, so either
// winning is correct.
type tfMemo struct {
	tf    Timeframe
	avail []atomic.Pointer[stats.Stat] // indexed by linkID*2 + dir
	loads []atomic.Pointer[stats.Stat] // indexed by nodeSlot
}

// tfFor returns (building if needed) the memo for one timeframe. The
// slice of timeframes is copy-on-write: distinct timeframes per epoch
// are few (an adaptation loop typically reuses one or two), so a linear
// scan beats any locked map.
func (am *availMemo) tfFor(tf Timeframe, s *snapshot) *tfMemo {
	for {
		lst := am.tfs.Load()
		if lst != nil {
			for _, tm := range *lst {
				if tm.tf == tf {
					return tm
				}
			}
		}
		tm := &tfMemo{
			tf:    tf,
			avail: make([]atomic.Pointer[stats.Stat], s.chanSlots),
			loads: make([]atomic.Pointer[stats.Stat], len(s.nodeSlot)),
		}
		var cur []*tfMemo
		if lst != nil {
			cur = *lst
		}
		next := make([]*tfMemo, len(cur), len(cur)+1)
		copy(next, cur)
		next = append(next, tm)
		if am.tfs.CompareAndSwap(lst, &next) {
			return tm
		}
	}
}

// view is one query's resolved read context: the snapshot it runs
// against, its timeframe, and — when memoization applies — the tfMemo
// for that timeframe at the current data version. Resolving once per
// query keeps the per-channel path to a slot computation and an atomic
// load.
type view struct {
	m  *Modeler
	s  *snapshot
	tf Timeframe
	tm *tfMemo // nil: memo disabled (capacity timeframe or unversioned source)

	// hits and misses count memo outcomes for this query alone; flush
	// publishes them, one atomic add per counter per query rather than
	// one per channel read.
	hits, misses uint64
}

// flush adds the view's memo hit and miss counts to the Modeler's
// counters. Call it once, when the query is done with the view.
func (v *view) flush() {
	if v.hits > 0 {
		v.m.cMemoHits.Add(v.hits)
	}
	if v.misses > 0 {
		v.m.cMemoMiss.Add(v.misses)
	}
	v.hits, v.misses = 0, 0
}

// view builds the read context for one query. The memo generation is
// refreshed (CAS, upgrade-only: versions are monotone) when the source
// reports a newer data version than the installed generation.
func (m *Modeler) view(s *snapshot, tf Timeframe) view {
	v := view{m: m, s: s, tf: tf}
	if tf.Kind == Capacity || !s.memoOK {
		return v
	}
	ver, ok := m.memoVersion()
	if !ok {
		return v
	}
	var am *availMemo
	for {
		am = s.memo.Load()
		if am != nil && am.version >= ver {
			break
		}
		fresh := &availMemo{version: ver}
		if s.memo.CompareAndSwap(am, fresh) {
			am = fresh
			break
		}
	}
	v.tm = am.tfFor(tf, s)
	return v
}

// channelAvailability is the memoized read path for one directed
// channel's availability under the view's timeframe. Lifecycle errors
// (deadline, cancellation, shed, busy) are never memoized: they belong
// to one caller's budget, not to the data.
func (v *view) channelAvailability(ctx context.Context, l *graph.Link, d graph.Dir) (stats.Stat, error) {
	if v.tf.Kind == Capacity {
		return stats.Exact(l.Capacity), nil
	}
	slot := -1
	if v.tm != nil {
		slot = int(l.ID)*2 + int(d)
		if p := v.tm.avail[slot].Load(); p != nil {
			v.hits++
			return *p, nil
		}
	}
	st, err := v.m.computeChannelAvailability(ctx, v.s, l, d, v.tf)
	if err != nil {
		return st, err
	}
	if slot >= 0 {
		v.misses++
		cp := st
		v.tm.avail[slot].Store(&cp)
	}
	return st, nil
}

// hostLoad is the memoized read path for a node's CPU load summary.
// Non-lifecycle measurement errors degrade to no-data (GetGraph's
// contract) and the degraded answer is memoized too — it is a property
// of the current data version, refreshed at the next one.
func (v *view) hostLoad(ctx context.Context, id graph.NodeID) (stats.Stat, error) {
	slot := -1
	if v.tm != nil {
		if i, ok := v.s.nodeSlot[id]; ok {
			slot = i
			if p := v.tm.loads[slot].Load(); p != nil {
				v.hits++
				return *p, nil
			}
		}
	}
	ld, err := collector.CtxHostLoad(ctx, v.m.cfg.Source, id, tfSpan(v.tf))
	if err != nil {
		if collector.IsLifecycleError(err) {
			return stats.NoData(), err
		}
		ld = stats.NoData()
	}
	if slot >= 0 {
		v.misses++
		cp := ld
		v.tm.loads[slot].Store(&cp)
	}
	return ld, nil
}

// foldAvail combines the availabilities of the physical channels behind
// one logical link (element-wise bottleneck min), then folds in any
// collapsed-router internal-bandwidth limit. MinStat is associative and
// commutative, so folding the flat channel list is equivalent to the
// pairwise merging the chain collapse used to do.
func (v *view) foldAvail(ctx context.Context, chans []physChan, limit float64) (stats.Stat, error) {
	out := stats.NoData()
	for _, pc := range chans {
		a, err := v.channelAvailability(ctx, pc.l, pc.d)
		if err != nil {
			return stats.NoData(), err
		}
		out = stats.MinStat(out, a)
	}
	if limit > 0 {
		out = stats.MinStat(out, stats.Exact(limit))
	}
	return out, nil
}

// physChan identifies one directed physical channel contributing to a
// logical link's availability.
type physChan struct {
	l *graph.Link
	d graph.Dir
}

// planLink is one logical link of a graph plan: static annotations
// precomputed, dynamic availability expressed as the channel sets to
// fold at query time.
type planLink struct {
	a, b     graph.NodeID
	capacity stats.Stat
	latency  stats.Stat
	fwd, rev []physChan // physical channels behind a->b / b->a traffic
	limit    float64    // min internal BW of collapsed routers (0 = none)
}

// graphPlan is the frozen skeleton of one remos_get_graph answer: node
// annotations minus the dynamic load, logical links minus the dynamic
// availability, plus the (immutable, shared) index maps the answer's
// Node/LinksAt accessors use.
type graphPlan struct {
	nodes   []NodeInfo
	links   []planLink
	nodeIdx map[graph.NodeID]int
	linkIdx map[graph.NodeID][]int
}

type planMap map[string]*graphPlan

// planKey canonicalizes a node set. The empty key stands for "all
// compute nodes" — the common (and benchmarked) case — so the default
// query never allocates a key.
func planKey(nodes []graph.NodeID) string {
	if len(nodes) == 0 {
		return ""
	}
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = string(n)
	}
	sort.Strings(ids)
	return strings.Join(ids, "\x00")
}

// plan returns the cached plan for a validated node set, building and
// publishing it (copy-on-write map) on first use.
func (s *snapshot) plan(key string, nodes []graph.NodeID) (*graphPlan, error) {
	if pm := s.plans.Load(); pm != nil {
		if p, ok := (*pm)[key]; ok {
			return p, nil
		}
	}
	p, err := s.buildPlan(nodes)
	if err != nil {
		return nil, err
	}
	for {
		old := s.plans.Load()
		if old != nil {
			if q, ok := (*old)[key]; ok {
				return q, nil
			}
		}
		var next planMap
		if old != nil {
			next = make(planMap, len(*old)+1)
			for k, q := range *old {
				next[k] = q
			}
		} else {
			next = make(planMap, 1)
		}
		next[key] = p
		if s.plans.CompareAndSwap(old, &next) {
			return p, nil
		}
	}
}

// buildPlan derives the logical-topology skeleton for a node set:
// (1) the subgraph induced by routes among the requested nodes, (2)
// pass-through network-node chains collapsed into single logical links
// (capacity: min; latency: sum; internal-BW limits folded) — exactly
// the construction of §4.3, but tracking for every logical link which
// physical channels its availability folds over instead of binding any
// timeframe-dependent numbers. The result is immutable and shared by
// every query against this snapshot.
func (s *snapshot) buildPlan(nodes []graph.NodeID) (*graphPlan, error) {
	requested := make(map[graph.NodeID]bool, len(nodes))
	for _, n := range nodes {
		requested[n] = true
	}
	sub := s.topo.Graph.InducedByRoutes(s.rt, nodes)

	type buildLink struct {
		a, b     graph.NodeID
		capacity stats.Stat
		latency  stats.Stat
		fwd, rev []physChan
		limit    float64
	}
	chansFrom := func(l *buildLink, from graph.NodeID) []physChan {
		if l.a == from {
			return l.fwd
		}
		return l.rev
	}
	otherEnd := func(l *buildLink, id graph.NodeID) graph.NodeID {
		if l.a == id {
			return l.b
		}
		return l.a
	}

	// The induced subgraph has fresh link IDs; map each link back to the
	// original by endpoints + capacity so channel identities (and memo
	// slots) refer to the snapshot's physical topology.
	bls := make([]*buildLink, 0, sub.NumLinks())
	adj := make(map[graph.NodeID][]*buildLink)
	for _, l := range sub.Links() {
		orig := findLink(s.topo.Graph, l.A, l.B, l.Capacity)
		if orig == nil {
			return nil, fmt.Errorf("core: internal: lost link %s--%s", l.A, l.B)
		}
		bl := &buildLink{
			a: l.A, b: l.B,
			capacity: stats.Exact(l.Capacity),
			latency:  stats.Exact(l.Latency),
			fwd:      []physChan{{orig, orig.DirFrom(l.A)}},
			rev:      []physChan{{orig, orig.DirFrom(l.B)}},
		}
		bls = append(bls, bl)
		adj[l.A] = append(adj[l.A], bl)
		adj[l.B] = append(adj[l.B], bl)
	}

	// Collapse pass-through network-node chains.
	removed := make(map[graph.NodeID]bool)
	liveAt := func(id graph.NodeID) []*buildLink {
		var out []*buildLink
		for _, l := range adj[id] {
			if l.a != "" {
				out = append(out, l)
			}
		}
		return out
	}
	for {
		collapsed := false
		for _, id := range sub.Nodes() {
			if removed[id] || requested[id] {
				continue
			}
			nd := sub.Node(id)
			if nd == nil || nd.Kind != graph.Network {
				continue
			}
			ls := liveAt(id)
			if len(ls) != 2 {
				continue
			}
			l1, l2 := ls[0], ls[1]
			a, b := otherEnd(l1, id), otherEnd(l2, id)
			if a == b {
				continue
			}
			merged := &buildLink{a: a, b: b}
			merged.capacity = stats.MinStat(l1.capacity, l2.capacity)
			merged.latency = stats.AddStat(l1.latency, l2.latency)
			// a -> b traverses l1 from a, then l2 from mid (and the
			// reverse for b -> a).
			merged.fwd = append(append([]physChan(nil), chansFrom(l1, a)...), chansFrom(l2, id)...)
			merged.rev = append(append([]physChan(nil), chansFrom(l2, b)...), chansFrom(l1, id)...)
			merged.limit = minPositive(l1.limit, l2.limit)
			if nd.InternalBW > 0 {
				merged.capacity = stats.MinStat(merged.capacity, stats.Exact(nd.InternalBW))
				merged.limit = minPositive(merged.limit, nd.InternalBW)
			}
			// Mark originals dead and install the merged link.
			l1.a, l1.b = "", ""
			l2.a, l2.b = "", ""
			adj[a] = append(adj[a], merged)
			adj[b] = append(adj[b], merged)
			bls = append(bls, merged)
			removed[id] = true
			collapsed = true
		}
		if !collapsed {
			break
		}
	}

	p := &graphPlan{}
	for _, id := range sub.Nodes() {
		if removed[id] {
			continue
		}
		nd := sub.Node(id)
		p.nodes = append(p.nodes, NodeInfo{ID: id, Kind: nd.Kind, InternalBW: nd.InternalBW, Memory: nd.MemoryBytes})
	}
	for _, bl := range bls {
		if bl.a == "" {
			continue // merged away
		}
		p.links = append(p.links, planLink{
			a: bl.a, b: bl.b,
			capacity: bl.capacity, latency: bl.latency,
			fwd: bl.fwd, rev: bl.rev, limit: bl.limit,
		})
	}
	sort.Slice(p.links, func(i, j int) bool {
		if p.links[i].a != p.links[j].a {
			return p.links[i].a < p.links[j].a
		}
		return p.links[i].b < p.links[j].b
	})
	p.nodeIdx = make(map[graph.NodeID]int, len(p.nodes))
	for i := range p.nodes {
		p.nodeIdx[p.nodes[i].ID] = i
	}
	p.linkIdx = make(map[graph.NodeID][]int, len(p.nodes))
	for i := range p.links {
		p.linkIdx[p.links[i].a] = append(p.linkIdx[p.links[i].a], i)
		p.linkIdx[p.links[i].b] = append(p.linkIdx[p.links[i].b], i)
	}
	return p, nil
}

// minPositive returns the smaller of two limits, treating <=0 as "no
// limit".
func minPositive(a, b float64) float64 {
	if a <= 0 {
		return b
	}
	if b <= 0 {
		return a
	}
	return math.Min(a, b)
}
