package collector

import (
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/stats"
)

// Collector-side hooks for the hot-standby pair (internal/ha): the HA
// node publishes its lease term and role here, the feed and query
// layers stamp them on everything that leaves the process, and a
// standby keeps its state warm by applying the leader's feed payloads
// directly into the collector — so a promotion starts from synced
// windows, not a cold discovery.

// haMode values for the haMode atomic.
const (
	haModeOff     = 0 // not part of a pair: HAStatus reports ok=false
	haModeStandby = 1
	haModeLeader  = 2
)

// SetHA publishes the collector's HA role and lease term. The ha.Node
// calls it on every role transition; a collector that never sees a
// SetHA call reports no HA state and all wire stamping stays zero.
func (c *Collector) SetHA(term uint64, leader bool) {
	c.haTerm.Store(term)
	if leader {
		c.haMode.Store(haModeLeader)
	} else {
		c.haMode.Store(haModeStandby)
	}
}

// HAStatus implements HAStatusSource: the current lease term and role.
// ok is false when the collector is not part of a hot-standby pair.
func (c *Collector) HAStatus() (term uint64, leader bool, ok bool) {
	mode := c.haMode.Load()
	if mode == haModeOff {
		return 0, false, false
	}
	return c.haTerm.Load(), mode == haModeLeader, true
}

// advanceVersionTo raises dataVersion to at least v (and always by at
// least one), keeping epochs monotonic when a standby mirrors its
// leader's epochs and then starts minting its own after promotion.
func advanceVersionTo(dv *atomic.Uint64, v uint64) {
	for {
		cur := dv.Load()
		next := v
		if next <= cur {
			next = cur + 1
		}
		if dv.CompareAndSwap(cur, next) {
			return
		}
	}
}

// ApplyFeed installs one replication feed payload into the collector: a
// standby's live state sync. Full payloads go through the same install
// as a checkpoint restore, replacing the measurement state wholesale
// (and bumping the state generation, so any downstream feed cursors
// re-snapshot); deltas extend the existing windows. Counter baselines
// are not carried by the feed, so a promoted standby's first poll round
// re-baselines each counter instead of fabricating a rate across the
// failover.
//
// Coherence (Seq gaps, term fencing, delta-before-full) is the caller's
// job — the ha.Node's sync loop enforces the same rules as a read
// replica — but a delta arriving before any full payload is rejected
// here too, since applying it would corrupt the store silently.
func (c *Collector) ApplyFeed(p *FeedPayload) error {
	if p == nil {
		return fmt.Errorf("collector: nil feed payload")
	}
	if !p.Full {
		return c.applyFeedDelta(p)
	}
	if err := c.install(p, nil); err != nil {
		return err
	}
	c.tel.Counter("collector.feed.applied.full").Inc()
	return nil
}

func (c *Collector) applyFeedDelta(p *FeedPayload) error {
	topo, err := p.Topology()
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.topo == nil {
		c.mu.Unlock()
		return fmt.Errorf("collector: feed delta before any full payload")
	}
	if topo != nil {
		c.topo = topo
		c.capacity = make(map[ChannelKey]float64, len(p.Capacity))
		maps.Copy(c.capacity, p.Capacity)
	}
	for k, samples := range p.Channels {
		w := c.windows[k]
		if w == nil {
			w = stats.NewWindow(c.cfg.WindowLen, c.cfg.WindowAge)
			c.windows[k] = w
		}
		if err := AddSamples(w, samples); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	for id, samples := range p.Loads {
		nid := graph.NodeID(id)
		w := c.loads[nid]
		if w == nil {
			w = stats.NewWindow(c.cfg.WindowLen, c.cfg.WindowAge)
			c.loads[nid] = w
		}
		if err := AddSamples(w, samples); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	if p.Health != nil {
		c.health = healthFrom(p.Health)
	}
	c.mu.Unlock()
	advanceVersionTo(&c.dataVersion, p.Epoch)
	c.notifyVersion()
	c.tel.Counter("collector.feed.applied.delta").Inc()
	return nil
}
