package replica

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
)

// store is one immutable view of the fed collector state, published
// through Replica.cur (an atomic.Pointer, the same lock-free discipline
// as the Modeler's topology snapshots). Query goroutines Load it and
// read freely; the feed goroutine never mutates a published store —
// applying a delta builds a successor copy-on-write, cloning only the
// windows that received samples.
type store struct {
	epoch    uint64 // collector DataVersion this state reflects
	term     uint64 // HA lease term of the feeding leader (0 = no HA)
	topo     *collector.Topology
	channels map[collector.ChannelKey]*stats.Window
	loads    map[graph.NodeID]*stats.Window
	capacity map[collector.ChannelKey]float64
	health   map[graph.NodeID]collector.AgentHealth

	halfLife  float64 // collector accuracy half-life (0 = no decay)
	windowLen int
	windowAge float64

	// feedNow is the collector's virtual clock at the update that built
	// this store; appliedWall is the local wall clock at apply time.
	// Between updates (and across partitions) the replica extrapolates
	// the collector clock at one virtual second per wall second, so
	// reported data ages keep growing honestly while the feed is dark.
	feedNow     float64
	appliedWall time.Time
}

// virtualNow extrapolates the collector's clock to the local wall time.
func (st *store) virtualNow(wall time.Time) float64 {
	return st.feedNow + wall.Sub(st.appliedWall).Seconds()
}

// staleness is how long ago the state was applied, in wall time.
func (st *store) staleness(wall time.Time) time.Duration {
	return wall.Sub(st.appliedWall)
}

// applyFull builds a fresh store from a Full feed payload.
func applyFull(p *collector.FeedPayload, wall time.Time) (*store, error) {
	if !p.Full {
		return nil, fmt.Errorf("replica: applyFull on a delta payload")
	}
	topo, err := p.Topology()
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	if topo == nil {
		return nil, fmt.Errorf("replica: full payload without topology")
	}
	st := &store{
		epoch:       p.Epoch,
		term:        p.Term,
		topo:        topo,
		channels:    make(map[collector.ChannelKey]*stats.Window, len(p.Channels)),
		loads:       make(map[graph.NodeID]*stats.Window, len(p.Loads)),
		capacity:    make(map[collector.ChannelKey]float64, len(p.Capacity)),
		health:      make(map[graph.NodeID]collector.AgentHealth, len(p.Health)),
		halfLife:    p.HalfLife,
		windowLen:   p.SafeWindowLen(),
		windowAge:   p.WindowAge,
		feedNow:     p.Now,
		appliedWall: wall,
	}
	maps.Copy(st.capacity, p.Capacity)
	for k, samples := range p.Channels {
		w, err := extendWindow(st, nil, samples)
		if err != nil {
			return nil, err
		}
		st.channels[k] = w
	}
	for id, samples := range p.Loads {
		w, err := extendWindow(st, nil, samples)
		if err != nil {
			return nil, err
		}
		st.loads[graph.NodeID(id)] = w
	}
	for id, h := range p.Health {
		st.health[graph.NodeID(id)] = h
	}
	return st, nil
}

// applyDelta builds the successor store: shallow map copies, windows
// cloned only where new samples landed, topology/capacity replaced only
// when the payload re-shipped them.
func (st *store) applyDelta(p *collector.FeedPayload, wall time.Time) (*store, error) {
	if p.Full {
		return applyFull(p, wall)
	}
	next := &store{
		epoch:       p.Epoch,
		term:        st.term,
		topo:        st.topo,
		channels:    make(map[collector.ChannelKey]*stats.Window, len(st.channels)+len(p.Channels)),
		loads:       make(map[graph.NodeID]*stats.Window, len(st.loads)+len(p.Loads)),
		capacity:    st.capacity,
		health:      st.health,
		halfLife:    p.HalfLife,
		windowLen:   st.windowLen,
		windowAge:   st.windowAge,
		feedNow:     p.Now,
		appliedWall: wall,
	}
	for k, w := range st.channels {
		next.channels[k] = w
	}
	for id, w := range st.loads {
		next.loads[id] = w
	}
	topo, err := p.Topology()
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	if topo != nil {
		next.topo = topo
		next.capacity = make(map[collector.ChannelKey]float64, len(p.Capacity))
		maps.Copy(next.capacity, p.Capacity)
	}
	for k, samples := range p.Channels {
		w, err := extendWindow(next, next.channels[k], samples)
		if err != nil {
			return nil, err
		}
		next.channels[k] = w
	}
	for id, samples := range p.Loads {
		w, err := extendWindow(next, next.loads[graph.NodeID(id)], samples)
		if err != nil {
			return nil, err
		}
		next.loads[graph.NodeID(id)] = w
	}
	if p.Health != nil {
		health := make(map[graph.NodeID]collector.AgentHealth, len(p.Health))
		for id, h := range p.Health {
			health[graph.NodeID(id)] = h
		}
		next.health = health
	}
	return next, nil
}

// extendWindow clones prev (nil = a channel new to this replica) and
// appends the shipped samples. collector.AddSamples rejects non-finite
// values and out-of-order times: a corrupt or adversarial payload must
// fail the apply, not poison the store.
func extendWindow(st *store, prev *stats.Window, samples []stats.Sample) (*stats.Window, error) {
	var w *stats.Window
	if prev == nil {
		w = stats.NewWindow(st.windowLen, st.windowAge)
	} else {
		w = prev.Clone()
	}
	if err := collector.AddSamples(w, samples); err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	return w, nil
}
