package collector

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Replication feed: the "feed" watch kind streams a collector's full
// measurement state to stateless read replicas (internal/replica). It
// rides the multiplexed watch plane unchanged — same bounded per-
// subscription queues, dense Seq numbers, Overflowed marks, stalled-
// subscriber eviction, and terminal Final on drain — so the feed
// inherits every backpressure property subscriptions already have.
//
// Protocol: the first update on a fresh subscription carries a Full
// payload (the state image a checkpoint file also holds: topology,
// sample windows, capacities, loads, and health). After that, each
// data-version bump produces a delta payload holding only the samples
// newer than the per-subscription cursor, plus the topology/capacity
// maps when a rediscovery moved them and the (small) health map every
// time. Epochs are the collector's DataVersion, so a replica's applied
// epoch is directly comparable to its collector's.
//
// Coherence is the subscriber's job: a Seq gap, an Overflowed mark, or
// a failover Resync mark means deltas were lost, and the only honest
// recovery is a fresh subscription (whose first update is Full again).
// A checkpoint restore replaces the collector's state wholesale; the
// state generation counter detects that and re-ships a Full payload on
// the existing subscription instead of a delta against windows that no
// longer exist.

// WatchFeed is the replication watch kind (WatchRequest.Kind): full
// snapshot first, epoch deltas after. Only sources implementing
// FeedSource accept it.
const WatchFeed = "feed"

// FeedPayload is the replication payload of one WatchFeed update. A
// Full payload is also the collector's one serialized state image: a
// checkpoint file (checkpoint.go) is that image plus a trailer.
type FeedPayload struct {
	// Epoch is the source DataVersion the payload was collected at.
	Epoch uint64
	// Full marks a complete state snapshot: the receiver replaces
	// everything. False means a delta against the previous payload.
	Full bool
	// Now is the collector's virtual clock at collection time; replicas
	// extrapolate data ages from it between updates and across
	// partitions.
	Now float64
	// HalfLife is the collector's accuracy half-life (0 = decay
	// disabled), so replicas decay answers exactly like their feeder.
	HalfLife float64
	// WindowLen / WindowAge are the collector's sample-window bounds;
	// replicas size their windows identically.
	WindowLen int
	WindowAge float64
	// PollPeriod is the collector's poll interval in virtual seconds —
	// the expected heartbeat rate of this feed.
	PollPeriod float64
	// Term is the source's HA lease term (0 without HA). Receivers fence
	// on it: payloads with a term below the applied one are from a
	// deposed leader and must be rejected; a term advance forces a fresh
	// Full payload, exactly like a state-generation bump.
	Term uint64

	// Topo and Capacity are set on Full payloads and whenever a
	// rediscovery moved the topology; nil otherwise.
	Topo     *WireTopo
	Capacity map[ChannelKey]float64

	// Channels and Loads carry the samples newer than the subscription
	// cursor (everything retained, on Full payloads).
	Channels map[ChannelKey][]stats.Sample
	Loads    map[string][]stats.Sample

	// Health is the full per-agent health map (small; shipped on every
	// payload).
	Health map[string]AgentHealth
}

// SafeWindowLen is WindowLen as a receiver may size windows by:
// stats.NewWindow panics on a non-positive length and preallocates the
// ring, so a corrupt length must neither panic nor drive an unbounded
// allocation. Unset lengths get the collector default.
func (p *FeedPayload) SafeWindowLen() int {
	const maxLen = 1 << 16
	switch {
	case p.WindowLen <= 0:
		return defaultWindowLen
	case p.WindowLen > maxLen:
		return maxLen
	}
	return p.WindowLen
}

// AddSamples appends shipped samples to w, refusing any non-finite time
// or value and any sample older than its predecessor. Every reader of a
// state image or feed delta (checkpoint restore, loaded history,
// standby, replica) runs its samples through it, so a corrupt file or
// payload fails the apply instead of poisoning a window.
func AddSamples(w *stats.Window, samples []stats.Sample) error {
	for _, s := range samples {
		if math.IsNaN(s.Time) || math.IsInf(s.Time, 0) ||
			math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("collector: non-finite sample (t=%v, v=%v)", s.Time, s.Value)
		}
		if err := w.Add(s.Time, s.Value); err != nil {
			return fmt.Errorf("collector: corrupt samples: %w", err)
		}
	}
	return nil
}

// Topology decodes the payload's topology (nil when the payload
// carries none — an unchanged-topology delta). It errors on an
// incoherent wire topology — a replica must reject such a payload and
// resync, not panic.
func (p *FeedPayload) Topology() (*Topology, error) {
	if p.Topo == nil {
		return nil, nil
	}
	return topoFromWireChecked(p.Topo)
}

// FeedCursor is one subscription's replication progress: what the
// subscriber has already been sent. It is owned by the single evaluator
// goroutine that runs the subscription.
type FeedCursor struct {
	sentFull bool
	gen      uint64 // state generation (checkpoint restores reset it)
	term     uint64 // HA lease term last shipped (promotions force Full)
	epoch    uint64
	disc     float64 // topology DiscoveredAt last shipped
	chans    map[ChannelKey]float64
	loads    map[string]float64
}

// FeedSource is a Source that can stream its state to read replicas.
// Implemented by *Collector; servers refuse WatchFeed subscriptions on
// sources that lack it.
type FeedSource interface {
	// FeedSince collects everything newer than the cursor and advances
	// it. A nil payload with nil error means nothing new. The first call
	// on a fresh cursor (and any call after the source's state was
	// replaced wholesale) returns a Full payload.
	FeedSince(cur *FeedCursor) (*FeedPayload, error)
}

// FeedSince implements FeedSource.
func (c *Collector) FeedSince(cur *FeedCursor) (*FeedPayload, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.topo == nil {
		return nil, fmt.Errorf("collector: topology not discovered yet")
	}
	return c.feedSinceLocked(cur), nil
}

// feedSinceLocked is FeedSince under c.mu on a discovered collector. On
// a fresh cursor it returns the Full state image.
func (c *Collector) feedSinceLocked(cur *FeedCursor) *FeedPayload {
	epoch := c.dataVersion.Load()
	term, _, _ := c.HAStatus()
	full := !cur.sentFull || cur.gen != c.stateGen || cur.term != term
	if !full && epoch == cur.epoch {
		return nil
	}
	p := &FeedPayload{
		Epoch:      epoch,
		Full:       full,
		Term:       term,
		Now:        float64(c.cfg.Clock.Now()),
		HalfLife:   c.cfg.staleHalfLife(),
		WindowLen:  c.cfg.WindowLen,
		WindowAge:  c.cfg.WindowAge,
		PollPeriod: c.cfg.PollPeriod,
		Channels:   make(map[ChannelKey][]stats.Sample),
		Loads:      make(map[string][]stats.Sample),
		Health:     make(map[string]AgentHealth, len(c.health)),
	}
	if full {
		cur.chans = make(map[ChannelKey]float64)
		cur.loads = make(map[string]float64)
		cur.disc = 0
	}
	if full || c.topo.DiscoveredAt != cur.disc {
		p.Topo = topoToWire(c.topo)
		p.Capacity = make(map[ChannelKey]float64, len(c.capacity))
		for k, v := range c.capacity {
			p.Capacity[k] = v
		}
		cur.disc = c.topo.DiscoveredAt
	}
	for k, w := range c.windows {
		since, seen := cur.chans[k]
		var samples []stats.Sample
		if full || !seen {
			samples = w.Samples()
		} else {
			samples = w.SamplesSince(since)
		}
		if len(samples) == 0 {
			continue
		}
		p.Channels[k] = samples
		cur.chans[k] = samples[len(samples)-1].Time
	}
	for id, w := range c.loads {
		key := string(id)
		since, seen := cur.loads[key]
		var samples []stats.Sample
		if full || !seen {
			samples = w.Samples()
		} else {
			samples = w.SamplesSince(since)
		}
		if len(samples) == 0 {
			continue
		}
		p.Loads[key] = samples
		cur.loads[key] = samples[len(samples)-1].Time
	}
	for id, h := range c.health {
		p.Health[string(id)] = *h
	}
	cur.sentFull = true
	cur.gen = c.stateGen
	cur.term = term
	cur.epoch = epoch
	return p
}
