package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// workload is one traffic mix against one serving plane.
type workload struct {
	name string
	// rate is the open-loop arrival rate (ops/s).
	rate float64
	// period is the wall time per collector poll period.
	period time.Duration
	build  func(r *rig, seed int64) error
}

var workloads = []*workload{
	{name: "paper-remote", rate: 50, period: time.Second, build: buildPaperRemote},
	{name: "matrix-fabric", rate: 100, period: time.Second, build: buildMatrixFabric},
	{name: "replica-churn", rate: 400, period: 200 * time.Millisecond, build: buildReplicaChurn},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildPaperRemote serves the paper's Figure 3 testbed collector, with
// blast and CBR background traffic, to remote Modelers. The mix is the
// paper's own API: a quarter remos_get_graph over all eight hosts,
// three quarters remos_flow_info over one to four variable flows.
func buildPaperRemote(r *rig, seed int64) error {
	g := topology.Testbed()
	n, client, err := r.network(g)
	if err != nil {
		return err
	}
	col, err := r.startCollector(client, g.Nodes())
	if err != nil {
		return err
	}
	hosts := g.ComputeNodes()
	rng := rand.New(rand.NewSource(seed))
	a, b := pickPair(rng, hosts)
	traffic.Blast(n, a, b, (20+40*rng.Float64())*1e6)
	for i := 0; i < 2; i++ {
		a, b := pickPair(rng, hosts)
		traffic.CBR(n, a, b, (5+25*rng.Float64())*1e6)
	}
	r.clk.Advance(warmupVirtual)
	addr, err := r.serve(col)
	if err != nil {
		return err
	}
	r.probe = opSpec{kind: opGraph, hosts: hosts}
	r.plan = func(rng *rand.Rand) opSpec {
		if rng.Intn(4) == 0 {
			return opSpec{kind: opGraph, hosts: hosts}
		}
		flows := make([]core.Flow, 1+rng.Intn(4))
		for i := range flows {
			src, dst := pickPair(rng, hosts)
			flows[i] = core.Flow{Src: src, Dst: dst, Kind: core.VariableFlow, Bandwidth: 1}
		}
		return opSpec{kind: opFlows, flows: flows}
	}
	return r.dial(addr)
}

// Matrix-fabric sizing: a k=14 fat-tree (931 nodes, 686 hosts) split
// into three regions; every op asks for the 32×32 matrix over one seeded
// set of 16 hosts of the first region and 16 of the last. Each distinct
// host set costs a sweep compile per epoch, and arrivals wait out the
// whole per-epoch stall, so more sets would push the stall toward the
// median.
const (
	fabricNodes    = 900
	fabricSide     = 16
	fabricFlows    = 48
	replicaNodes   = 300 // hier: 264 hosts
	replicaFlows   = 32
	replicaMatrix  = 16
	replicaMatFrac = 0.05
)

// buildMatrixFabric serves one federation.View of a three-region
// fat-tree — the local region at full fidelity, the other two as
// summaries — to remote Modelers issuing batched matrices.
func buildMatrixFabric(r *rig, seed int64) error {
	tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindFatTree, N: fabricNodes, Seed: seed, Regions: 3})
	if err != nil {
		return err
	}
	n, client, err := r.network(tp.Graph)
	if err != nil {
		return err
	}
	var regions []*federation.Region
	for _, name := range tp.Regions {
		col, err := r.startCollector(client, tp.Members(name))
		if err != nil {
			return err
		}
		regions = append(regions, &federation.Region{Name: name, Src: col, RegionOf: tp.RegionOf, Clock: r.clk})
	}
	var peers []federation.Peer
	for _, reg := range regions[1:] {
		peers = append(peers, federation.SourcePeer(reg))
	}
	r.view = federation.NewView(federation.Config{Region: regions[0], Peers: peers, Clock: r.clk})

	rng := rand.New(rand.NewSource(seed))
	all := tp.Hosts("")
	for i := 0; i < fabricFlows; i++ {
		a, b := pickPair(rng, all)
		traffic.CBR(n, a, b, (0.05+0.3*rng.Float64())*topogen.AccessBps)
	}
	r.clk.Advance(warmupVirtual)
	addr, err := r.serve(r.view)
	if err != nil {
		return err
	}
	if err := r.dial(addr); err != nil {
		return err
	}
	first, last := tp.Hosts(tp.Regions[0]), tp.Hosts(tp.Regions[len(tp.Regions)-1])
	hosts := append(pickHosts(rng, first, fabricSide), pickHosts(rng, last, fabricSide)...)
	r.probe = opSpec{kind: opMatrix, hosts: hosts}
	r.plan = func(*rand.Rand) opSpec { return opSpec{kind: opMatrix, hosts: hosts} }
	return nil
}

// buildReplicaChurn serves a read replica that follows a collector's
// replication feed over loopback, on a hier topology with traffic.
// Point utilizations dominate; one op in twenty is a 16×16 matrix.
func buildReplicaChurn(r *rig, seed int64) error {
	tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: replicaNodes, Seed: seed})
	if err != nil {
		return err
	}
	n, client, err := r.network(tp.Graph)
	if err != nil {
		return err
	}
	col, err := r.startCollector(client, tp.Graph.Nodes())
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	hosts := tp.Hosts("")
	for i := 0; i < replicaFlows; i++ {
		a, b := pickPair(rng, hosts)
		traffic.CBR(n, a, b, (0.05+0.3*rng.Float64())*topogen.AccessBps)
	}
	r.clk.Advance(warmupVirtual)

	feed, err := collector.Serve(col, "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.stops = append(r.stops, func() { feed.Close() })
	r.repTel = r.modTel()
	rep := replica.New(replica.Config{FeedAddr: feed.Addr(), Seed: seed, Telemetry: r.repTel})
	rep.Start()
	r.stops = append(r.stops, rep.Close)
	ctx, cancel := context.WithTimeout(context.Background(), syncTimeout)
	defer cancel()
	if err := rep.WaitSynced(ctx); err != nil {
		return fmt.Errorf("replica sync: %w", err)
	}
	r.rep, r.up = rep, col
	addr, err := r.serve(rep)
	if err != nil {
		return err
	}
	keys := make([]collector.ChannelKey, 0, len(r.caps))
	topo, err := rep.Topology()
	if err != nil {
		return err
	}
	for _, l := range topo.Graph.Links() {
		keys = append(keys, topo.Key(l, graph.AtoB), topo.Key(l, graph.BtoA))
	}
	r.probe = opSpec{kind: opMatrix, hosts: pickHosts(rng, hosts, replicaMatrix)}
	r.plan = func(rng *rand.Rand) opSpec {
		if rng.Float64() < replicaMatFrac {
			return opSpec{kind: opMatrix, hosts: pickHosts(rng, hosts, replicaMatrix)}
		}
		return opSpec{kind: opUtil, key: keys[rng.Intn(len(keys))]}
	}
	return r.dial(addr)
}
