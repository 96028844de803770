package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Rig parameters shared by every workload.
const (
	pollPeriod    = 2.0  // collector poll period, virtual seconds
	warmupVirtual = 20.0 // virtual seconds of history collected before serving
	historySpan   = 10.0 // TFHistory window and utilization span of every query
	compareEvery  = 16   // one answer in this many is compared with an in-process Modeler
	maxClients    = 2    // client connections, further capped at nproc
	syncTimeout   = 20 * time.Second

	// The daemons' (remos-collector, remos-replica) admission defaults.
	serverMaxInflight = 64
	serverQueueDepth  = 128
	// admissionWindow sizes the traced server's admission-wait ring so
	// that it holds every wait of a run.
	admissionWindow = 1 << 17
)

// Operation kinds.
const (
	opGraph  = iota // remos_get_graph over a host set
	opFlows         // remos_flow_info over variable flows
	opMatrix        // batched flow matrix over a host set (srcs = dsts)
	opUtil          // point utilization of one channel
)

// opSpec is one generated operation. Every field is drawn from the
// workload seed.
type opSpec struct {
	kind    int
	hosts   []graph.NodeID
	flows   []core.Flow
	key     collector.ChannelKey
	compare bool
}

// conn is one client connection and the remote Modeler over it.
type conn struct {
	id  int
	src collector.Source // the dialed client, decorated in traced runs
	mod *core.Modeler

	// maxEpoch is the highest epoch of any answer completed on this
	// connection: a later-issued request must not see an older one.
	maxEpoch atomic.Uint64
}

// rig is one built instance of a workload's serving plane: simulated
// network, collectors, the server on loopback and its clients.
type rig struct {
	traced *boundaries // nil in untraced runs
	clk    *simclock.Clock
	period time.Duration // wall time per poll period
	// seq is odd while the writer advances the virtual clock; two equal
	// even reads bracket a span in which no poll ran.
	seq atomic.Uint64

	conns  []*conn
	dials  int
	srvTel *telemetry.Registry // the query server's registry (traced runs)
	mods   []*core.Modeler     // every Modeler of the rig, for core.* metrics
	view   *federation.View    // matrix-fabric
	rep    *replica.Replica    // replica-churn
	repTel *telemetry.Registry // replica registry (traced runs)
	up     *collector.Collector
	caps   map[collector.ChannelKey]float64
	maxCap float64

	// serving is the Source the query server answers from; ref is an
	// in-process Modeler over it, the reference for differential checks.
	serving collector.Source
	ref     *core.Modeler
	plan    func(rng *rand.Rand) opSpec
	// probe is the op whose first correct answer on each connection
	// ends set-up.
	probe opSpec

	stops []func()
}

func (r *rig) close() {
	for i := len(r.stops) - 1; i >= 0; i-- {
		r.stops[i]()
	}
	r.stops = nil
}

// version is the serving source's data version.
func (r *rig) version() uint64 {
	v, _ := r.serving.(collector.VersionedSource).DataVersion()
	return v
}

// modTel returns a registry for a new Modeler: traced runs read memo
// and topology-fetch counters from it; untraced runs keep Modeler
// telemetry off, as applications do by default.
func (r *rig) modTel() *telemetry.Registry {
	if r.traced == nil {
		return nil
	}
	return telemetry.NewRegistry()
}

// network builds a simulated network with SNMP agents and returns it
// with the SNMP client collectors poll through.
func (r *rig) network(g *graph.Graph) (*netsim.Network, *snmp.Client, error) {
	r.clk = simclock.New()
	n, err := netsim.New(r.clk, g)
	if err != nil {
		return nil, nil, err
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	var tr snmp.Transport = att.Registry
	if r.traced != nil {
		tr = &tTransport{inner: att.Registry, b: r.traced.snmp}
	}
	return n, snmp.NewClient(tr, snmp.DefaultCommunity), nil
}

// startCollector starts a collector polling members.
func (r *rig) startCollector(client *snmp.Client, members []graph.NodeID) (*collector.Collector, error) {
	addrs := make(map[graph.NodeID]string, len(members))
	for _, id := range members {
		addrs[id] = snmp.Addr(id)
	}
	col := collector.New(collector.Config{
		Client: client, Clock: r.clk, Addrs: addrs,
		PollPeriod: pollPeriod, PerHopLatency: topology.PerHopLatency,
	})
	if err := col.Start(); err != nil {
		return nil, err
	}
	r.stops = append(r.stops, col.Stop)
	return col, nil
}

// serve exposes src on loopback the way remos.ServeSource does — the
// matrix op answered by a Modeler over the same source — with the
// daemons' admission defaults. Traced runs wrap the source and the
// matrix handler.
func (r *rig) serve(src collector.Source) (string, error) {
	r.serving = src
	r.ref = core.New(core.Config{Source: src})
	topo, err := src.Topology()
	if err != nil {
		return "", err
	}
	r.caps = map[collector.ChannelKey]float64{}
	for _, l := range topo.Graph.Links() {
		r.caps[topo.Key(l, graph.AtoB)] = l.Capacity
		r.caps[topo.Key(l, graph.BtoA)] = l.Capacity
		r.maxCap = max(r.maxCap, l.Capacity)
	}

	cfg := collector.ServerConfig{MaxInflight: serverMaxInflight, QueueDepth: serverQueueDepth}
	if r.traced != nil {
		r.srvTel = telemetry.NewRegistry()
		r.srvTel.Quantile("server.admission.wait_ms", admissionWindow)
		cfg.Telemetry = r.srvTel
		if src, err = wrapSource(src, r.traced.source); err != nil {
			return "", err
		}
	}
	mod := core.New(core.Config{Source: src, Telemetry: r.modTel()})
	r.mods = append(r.mods, mod)
	cfg.Matrix = core.MatrixHandler(mod)
	if r.traced != nil {
		cfg.Matrix = timedMatrix(cfg.Matrix, r.traced.matrix, r.version)
	}
	srv, err := collector.ServeConfig(src, "127.0.0.1:0", cfg)
	if err != nil {
		return "", err
	}
	r.stops = append(r.stops, func() { srv.Close() })
	return srv.Addr(), nil
}

// clientCount is how many client connections a run dials: never more
// than the machine has CPUs.
func clientCount() int { return min(maxClients, runtime.NumCPU()) }

// dial opens the client connections, each with its own remote Modeler.
func (r *rig) dial(addr string) error {
	for i := 0; i < clientCount(); i++ {
		cl, err := collector.Dial(addr)
		if err != nil {
			return err
		}
		r.dials++
		r.stops = append(r.stops, func() { cl.Close() })
		var src collector.Source = cl
		if r.traced != nil {
			if src, err = wrapSource(cl, r.traced.client); err != nil {
				return err
			}
		}
		mod := core.New(core.Config{Source: src, Telemetry: r.modTel()})
		r.mods = append(r.mods, mod)
		r.conns = append(r.conns, &conn{id: i, src: src, mod: mod})
	}
	return nil
}

// call issues op's remote query on c.
func (r *rig) call(ctx context.Context, c *conn, op opSpec) (any, error) {
	tf := core.TFHistory(historySpan)
	switch op.kind {
	case opGraph:
		return c.mod.GetGraphCtx(ctx, op.hosts, tf)
	case opFlows:
		return c.mod.QueryFlowInfoCtx(ctx, nil, op.flows, nil, tf)
	case opMatrix:
		return c.mod.QueryMatrixCtx(ctx, op.hosts, op.hosts, tf)
	default:
		return c.src.(collector.ContextSource).UtilizationCtx(ctx, op.key, historySpan)
	}
}

// check validates one answer; floor is the connection's highest
// completed epoch when op was issued.
func (r *rig) check(op opSpec, ans any, floor uint64) (uint64, error) {
	last := floor
	var err error
	switch op.kind {
	case opGraph:
		err = checkGraph(ans.(*core.Graph), op.hosts, &last)
	case opFlows:
		err = checkFlows(ans.(*core.FlowInfo), len(op.flows), r.maxCap, &last)
	case opMatrix:
		err = checkMatrix(ans.(*core.MatrixInfo), len(op.hosts), r.maxCap, &last)
	default:
		st := ans.(stats.Stat)
		if !st.Valid() {
			err = fmt.Errorf("utilization of %v has no samples", op.key)
		} else {
			err = checkStat(fmt.Sprintf("utilization of %v", op.key), st, r.caps[op.key])
		}
	}
	return last, err
}

// reference answers op in process from the serving source and returns
// both answers in their compared form.
func (r *rig) reference(ctx context.Context, op opSpec, ans any) (got, want any, err error) {
	tf := core.TFHistory(historySpan)
	switch op.kind {
	case opGraph:
		g, err := r.ref.GetGraphCtx(ctx, op.hosts, tf)
		if err != nil {
			return nil, nil, err
		}
		return graphBody(ans.(*core.Graph)), graphBody(g), nil
	case opFlows:
		fi, err := r.ref.QueryFlowInfoCtx(ctx, nil, op.flows, nil, tf)
		if err != nil {
			return nil, nil, err
		}
		return flowBody(ans.(*core.FlowInfo)), flowBody(fi), nil
	case opMatrix:
		mi, err := r.ref.QueryMatrixCtx(ctx, op.hosts, op.hosts, tf)
		if err != nil {
			return nil, nil, err
		}
		return matrixBody(ans.(*core.MatrixInfo)), matrixBody(mi), nil
	default:
		st, err := r.serving.Utilization(op.key, historySpan)
		if err != nil {
			return nil, nil, err
		}
		return statBody(ans.(stats.Stat)), statBody(st), nil
	}
}

// pickHosts draws k distinct hosts from pool, sorted.
func pickHosts(rng *rand.Rand, pool []graph.NodeID, k int) []graph.NodeID {
	idx := rng.Perm(len(pool))[:k]
	sort.Ints(idx)
	out := make([]graph.NodeID, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// pickPair draws two distinct hosts.
func pickPair(rng *rand.Rand, pool []graph.NodeID) (graph.NodeID, graph.NodeID) {
	i := rng.Intn(len(pool))
	j := rng.Intn(len(pool) - 1)
	if j >= i {
		j++
	}
	return pool[i], pool[j]
}
