// Package collector implements the Remos Collector (Figure 2): the
// network-facing half of the system. It discovers topology and polls
// octet counters over SNMP, maintains per-channel utilization time
// series, and answers the Modeler's queries either in-process or over a
// TCP service (service.go). Multiple collectors covering different parts
// of a network can be merged (merge.go), the paper's "large environment
// may require multiple cooperating Collectors".
package collector

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"time"
)

// ChannelKey names one direction of one physical link in a way that is
// stable across collectors: the global link ID published by agents in the
// Remos enterprise MIB, plus a direction relative to the canonical
// (lexicographically smaller endpoint = A) orientation.
type ChannelKey struct {
	Global int
	Dir    graph.Dir
}

func (k ChannelKey) String() string { return fmt.Sprintf("glink%d/%s", k.Global, k.Dir) }

// Topology is a discovered network map.
type Topology struct {
	// Graph holds the discovered nodes and links. Links are inserted in
	// ascending global-ID order with canonical endpoint orientation, so
	// local IDs are deterministic.
	Graph *graph.Graph
	// GlobalID maps the Graph's local link IDs to global link IDs.
	GlobalID map[graph.LinkID]int
	// DiscoveredAt is the virtual time of discovery.
	DiscoveredAt float64
}

// Key returns the ChannelKey for a directed traversal of a local link.
func (t *Topology) Key(l *graph.Link, d graph.Dir) ChannelKey {
	return ChannelKey{Global: t.GlobalID[l.ID], Dir: d}
}

// VersionedSource is an optional Source refinement exposing a cheap,
// monotonically increasing data version: the version changes whenever
// the measurements or topology behind the source may have changed (a
// poll round ran, a rediscovery completed, a checkpoint was restored).
// The Modeler uses it to invalidate its per-snapshot availability memo
// without re-fetching every channel per query; sources that cannot
// report a version cheaply (the TCP Client — a version probe would cost
// the round trip the memo exists to avoid) return ok=false and the
// Modeler simply skips memoization for them.
type VersionedSource interface {
	DataVersion() (version uint64, ok bool)
}

// Source is the query surface the Modeler consumes. Implemented by
// *Collector (in-process), *Client (TCP), and *Merged.
type Source interface {
	// Topology returns the discovered network map.
	Topology() (*Topology, error)
	// Utilization summarizes the traffic rate (bits/s) observed on a
	// channel over the trailing span seconds; span 0 means latest sample.
	Utilization(key ChannelKey, span float64) (stats.Stat, error)
	// Samples returns the raw utilization samples for predictors.
	Samples(key ChannelKey) ([]stats.Sample, error)
	// HostLoad summarizes a host's CPU load fraction over the span.
	HostLoad(node graph.NodeID, span float64) (stats.Stat, error)
	// DataAge reports how many seconds old the newest sample for a
	// channel is — the staleness a Modeler uses to decay prediction
	// accuracy at query time.
	DataAge(key ChannelKey) (float64, error)
}

// Config parameterizes a Collector.
type Config struct {
	Client *snmp.Client
	Clock  *simclock.Clock

	// Addrs maps node IDs to agent addresses; the collector polls all of
	// them and discovers topology from them. This is the collector's
	// administrative domain.
	Addrs map[graph.NodeID]string

	// PollPeriod is the counter-polling interval in (virtual) seconds.
	PollPeriod float64

	// WindowLen and WindowAge bound the per-channel sample windows.
	WindowLen int
	WindowAge float64

	// PerHopLatency is the fixed per-hop delay annotated on discovered
	// links, matching the paper's collector.
	PerHopLatency float64

	// RediscoverPeriod, when positive, re-runs topology discovery every
	// that many virtual seconds, picking up capacity changes (degraded
	// links report a new ifSpeed) and newly reachable agents. Zero
	// disables periodic rediscovery.
	RediscoverPeriod float64

	// DownAfter is the number of consecutive failed attempts at which an
	// agent's health goes from Degraded to Down (default 3). The first
	// failure already marks it Degraded.
	DownAfter int

	// BackoffBase and BackoffMax bound the exponential retry backoff the
	// circuit breaker applies to failing agents, in virtual seconds:
	// after the n-th consecutive failure the next attempt waits
	// min(BackoffBase·2^(n-1), BackoffMax). Defaults: PollPeriod and
	// 16×PollPeriod.
	BackoffBase float64
	BackoffMax  float64

	// BackoffJitter randomizes each backoff by ±(jitter fraction),
	// drawn from the seeded RNG so schedules stay reproducible. Zero
	// (the default) keeps the schedule exact.
	BackoffJitter float64

	// Seed seeds the jitter RNG (default 1).
	Seed int64

	// StaleHalfLife is the data age, in virtual seconds, at which a
	// channel's reported Accuracy has decayed to half — the §4.4
	// estimation-accuracy channel carrying outage information. Zero
	// means 10×PollPeriod; negative disables decay.
	StaleHalfLife float64
}

// defaultWindowLen is the sample-window length when none is configured.
const defaultWindowLen = 512

func (c *Config) fill() {
	if c.PollPeriod <= 0 {
		c.PollPeriod = 2.0
	}
	if c.WindowLen <= 0 {
		c.WindowLen = defaultWindowLen
	}
	if c.PerHopLatency <= 0 {
		c.PerHopLatency = 0.0005
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = c.PollPeriod
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 16 * c.BackoffBase
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StaleHalfLife == 0 {
		c.StaleHalfLife = 10 * c.PollPeriod
	}
}

// staleHalfLife returns the effective half-life (0 = decay disabled).
func (c *Config) staleHalfLife() float64 {
	if c.StaleHalfLife < 0 {
		return 0
	}
	return c.StaleHalfLife
}

// Collector polls agents and accumulates utilization history.
type Collector struct {
	cfg Config
	tel *telemetry.Registry

	mu         sync.Mutex
	topo       *Topology
	counters   map[ChannelKey]counterState
	windows    map[ChannelKey]*stats.Window
	capacity   map[ChannelKey]float64
	loads      map[graph.NodeID]*stats.Window
	health     map[graph.NodeID]*AgentHealth
	lastNode   map[graph.NodeID]*nodeInfo
	rng        *rand.Rand
	ticker     *simclock.Ticker
	rediscover *simclock.Ticker

	polls       uint64
	pollErrors  uint64
	discoveries uint64

	// stateGen counts wholesale state replacements (checkpoint
	// restores). Feed cursors (feed.go) remember the generation they
	// were built against; a mismatch means per-channel sample cursors
	// reference windows that no longer exist, so the subscription gets
	// a fresh Full payload instead of a bogus delta. Guarded by mu.
	stateGen uint64

	// dataVersion increments whenever stored measurements or topology
	// may have changed (poll round, discovery, checkpoint restore); see
	// VersionedSource. Atomic so readers never touch c.mu.
	dataVersion atomic.Uint64

	// haTerm/haMode publish the HA lease term and role (ha.go): set by
	// the ha.Node on role transitions, read by the feed, watch, and
	// query paths to stamp fencing state on everything that leaves the
	// process. Atomics so stamping never touches c.mu.
	haTerm atomic.Uint64
	haMode atomic.Uint32

	// versionSubs holds edge-triggered version-change listeners
	// (VersionNotifier, watch.go); its own lock so notifyVersion never
	// contends with query-path readers on c.mu.
	versionMu   sync.Mutex
	versionSubs map[chan struct{}]struct{}

	// Hot-path instruments, resolved once at construction so PollOnce
	// pays pointer dereferences, not registry lookups, per round.
	telPolls      *telemetry.Counter
	telPollErrors *telemetry.Counter
	telPollMS     *telemetry.Quantile
	telSamples    *telemetry.Counter
}

type counterState struct {
	at     float64
	octets uint32
	valid  bool
}

// New creates a Collector; call Discover (or Start, which discovers
// first) before querying.
func New(cfg Config) *Collector {
	cfg.fill()
	tel := telemetry.NewRegistry()
	return &Collector{
		cfg:      cfg,
		tel:      tel,
		counters: make(map[ChannelKey]counterState),
		windows:  make(map[ChannelKey]*stats.Window),
		capacity: make(map[ChannelKey]float64),
		loads:    make(map[graph.NodeID]*stats.Window),
		health:   make(map[graph.NodeID]*AgentHealth),
		lastNode: make(map[graph.NodeID]*nodeInfo),
		rng:      rand.New(rand.NewSource(cfg.Seed)),

		telPolls:      tel.Counter("collector.polls"),
		telPollErrors: tel.Counter("collector.poll.errors"),
		telPollMS:     tel.Quantile("collector.poll.wall_ms", 0),
		telSamples:    tel.Counter("collector.samples.ingested"),
	}
}

// Telemetry returns the collector's metrics registry: poll latencies,
// health transitions, checkpoint activity. Always non-nil.
func (c *Collector) Telemetry() *telemetry.Registry { return c.tel }

// Polls returns how many poll rounds completed.
func (c *Collector) Polls() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

// PollErrors returns how many per-agent poll failures occurred.
func (c *Collector) PollErrors() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pollErrors
}

// Start discovers the topology and begins periodic polling on the
// clock. A collector that already has a topology — restored from a
// checkpoint via RestoreCheckpoint — starts warm: the blocking cold
// discovery and baseline poll are skipped, queries are answerable from
// the first instant with honest (downtime-inclusive) data ages, and
// polling resumes at the next tick using the restored counter
// baselines.
func (c *Collector) Start() error {
	c.mu.Lock()
	warm := c.topo != nil
	c.mu.Unlock()
	if !warm {
		if _, err := c.Discover(); err != nil {
			return err
		}
		c.PollOnce() // baseline counters
	}
	clk := c.cfg.Clock
	c.ticker = clk.NewTicker(clk.Now()+simclock.Time(c.cfg.PollPeriod), c.cfg.PollPeriod,
		"collector-poll", func(simclock.Time) { c.PollOnce() })
	if c.cfg.RediscoverPeriod > 0 {
		c.rediscover = clk.NewTicker(clk.Now()+simclock.Time(c.cfg.RediscoverPeriod),
			c.cfg.RediscoverPeriod, "collector-rediscover", func(simclock.Time) {
				// Failures leave the previous topology in place; the
				// error count already tracks them.
				_, _ = c.Discover()
			})
	}
	return nil
}

// Stop halts periodic polling and rediscovery.
func (c *Collector) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
	if c.rediscover != nil {
		c.rediscover.Stop()
		c.rediscover = nil
	}
}

// Discoveries returns how many topology discoveries have completed.
func (c *Collector) Discoveries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.discoveries
}

// Topology implements Source.
func (c *Collector) Topology() (*Topology, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.topo == nil {
		return nil, fmt.Errorf("collector: topology not discovered yet")
	}
	return c.topo, nil
}

// ageAdjustLocked stamps the data age onto a summary and decays its
// accuracy by the configured half-life: how an agent outage shows up in
// query answers (stale-but-served) instead of as an error.
func (c *Collector) ageAdjustLocked(st stats.Stat, w *stats.Window) stats.Stat {
	latest, ok := w.Latest()
	if !ok {
		return st
	}
	st.Age = math.Max(0, float64(c.cfg.Clock.Now())-latest.Time)
	return st.AgeDecayed(c.cfg.staleHalfLife())
}

// Utilization implements Source.
func (c *Collector) Utilization(key ChannelKey, span float64) (stats.Stat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.windows[key]
	if w == nil {
		return stats.NoData(), fmt.Errorf("collector: unknown channel %v", key)
	}
	return c.ageAdjustLocked(w.Summary(span), w), nil
}

// DataAge implements Source: seconds since the newest sample for key.
func (c *Collector) DataAge(key ChannelKey) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.windows[key]
	if w == nil {
		return 0, fmt.Errorf("collector: unknown channel %v", key)
	}
	latest, ok := w.Latest()
	if !ok {
		return math.Inf(1), nil
	}
	return math.Max(0, float64(c.cfg.Clock.Now())-latest.Time), nil
}

// Samples implements Source.
func (c *Collector) Samples(key ChannelKey) ([]stats.Sample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.windows[key]
	if w == nil {
		return nil, fmt.Errorf("collector: unknown channel %v", key)
	}
	return w.Samples(), nil
}

// HostLoad implements Source.
func (c *Collector) HostLoad(node graph.NodeID, span float64) (stats.Stat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.loads[node]
	if w == nil {
		return stats.NoData(), fmt.Errorf("collector: no load data for %q", node)
	}
	return c.ageAdjustLocked(w.Summary(span), w), nil
}

// Capacity returns the discovered capacity of a channel in bits/s.
func (c *Collector) Capacity(key ChannelKey) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.capacity[key]
	return v, ok
}

// sortedNodes returns the domain's node IDs in stable order.
func (c *Collector) sortedNodes() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(c.cfg.Addrs))
	for id := range c.cfg.Addrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// PollOnce polls every agent in the domain once, recording one
// utilization sample per channel. Agent failures are counted and
// skipped: a collector must survive unreachable routers.
func (c *Collector) PollOnce() {
	wallStart := time.Now()
	defer func() {
		c.telPolls.Inc()
		c.telPollMS.Observe(float64(time.Since(wallStart)) / float64(time.Millisecond))
	}()
	now := float64(c.cfg.Clock.Now())
	type obs struct {
		key    ChannelKey
		octets uint32
	}
	var observations []obs
	seen := make(map[ChannelKey]bool)
	var loadObs []struct {
		node graph.NodeID
		load float64
	}

	for _, id := range c.sortedNodes() {
		// Circuit breaker: agents on a backoff schedule are skipped, so
		// a dead router costs a few probes per backoff period while the
		// surviving topology keeps being polled at full rate.
		if !c.allowAttempt(id, now) {
			continue
		}
		addr := c.cfg.Addrs[id]
		ifaces, err := c.walkInterfaces(addr)
		if err != nil {
			c.recordFailure(id, now)
			continue
		}
		for _, iface := range ifaces {
			outKey := canonicalKey(iface.global, string(id), iface.neighbor)
			inKey := canonicalKey(iface.global, iface.neighbor, string(id))
			if !seen[outKey] {
				seen[outKey] = true
				observations = append(observations, obs{outKey, iface.outOctets})
			}
			if !seen[inKey] {
				seen[inKey] = true
				observations = append(observations, obs{inKey, iface.inOctets})
			}
		}
		// Host CPU load, when exposed. A misbehaving agent can report
		// anything; negative or non-finite loads are rejected at ingest
		// so they never reach a sample window.
		if vbs, err := c.cfg.Client.Get(addr, snmp.OIDHrProcessorLoad); err == nil && len(vbs) == 1 {
			load := float64(vbs[0].Value.Int) / 100
			if math.IsNaN(load) || math.IsInf(load, 0) || load < 0 {
				c.noteIngestError()
			} else {
				loadObs = append(loadObs, struct {
					node graph.NodeID
					load float64
				}{id, load})
			}
		}
		c.recordSuccess(id, now)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range observations {
		prev := c.counters[o.key]
		c.counters[o.key] = counterState{at: now, octets: o.octets, valid: true}
		if !prev.valid || now <= prev.at {
			continue // baseline sample
		}
		// Counter32 wraparound-safe difference.
		delta := uint32(o.octets - prev.octets)
		rate := float64(delta) * 8 / (now - prev.at)
		// Ingest validation: a rate must be a finite non-negative number
		// before it may enter a window. maxmin's guards downstream are
		// the second line of defense, not the first.
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
			c.pollErrors++
			c.telPollErrors.Inc()
			continue
		}
		w := c.windows[o.key]
		if w == nil {
			w = stats.NewWindow(c.cfg.WindowLen, c.cfg.WindowAge)
			c.windows[o.key] = w
		}
		if err := w.Add(now, rate); err != nil {
			c.pollErrors++
			c.telPollErrors.Inc()
		} else {
			c.telSamples.Inc()
		}
	}
	for _, lo := range loadObs {
		w := c.loads[lo.node]
		if w == nil {
			w = stats.NewWindow(c.cfg.WindowLen, c.cfg.WindowAge)
			c.loads[lo.node] = w
		}
		if err := w.Add(now, lo.load); err != nil {
			c.pollErrors++
			c.telPollErrors.Inc()
		} else {
			c.telSamples.Inc()
		}
	}
	c.polls++
	// Bump even on an all-failures round: data *ages* (and accuracy
	// decays) are clock-relative, and the poll tick is the granularity at
	// which memoized answers may drift from a recomputation.
	c.dataVersion.Add(1)
	c.notifyVersion()
}

// DataVersion implements VersionedSource.
func (c *Collector) DataVersion() (uint64, bool) { return c.dataVersion.Load(), true }

// noteIngestError counts a rejected measurement; callers must not hold
// c.mu (PollOnce's collection phase runs before it takes the lock).
func (c *Collector) noteIngestError() {
	c.mu.Lock()
	c.pollErrors++
	c.mu.Unlock()
	c.telPollErrors.Inc()
}

// The in-process Collector answers immediately, so its ContextSource
// implementation only needs the liveness check: a caller whose budget
// already expired gets the typed error instead of a computed answer.

// TopologyCtx implements ContextSource.
func (c *Collector) TopologyCtx(ctx context.Context) (*Topology, error) {
	if err := ctxError(ctx); err != nil {
		return nil, err
	}
	return c.Topology()
}

// UtilizationCtx implements ContextSource.
func (c *Collector) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	if err := ctxError(ctx); err != nil {
		return stats.NoData(), err
	}
	return c.Utilization(key, span)
}

// SamplesCtx implements ContextSource.
func (c *Collector) SamplesCtx(ctx context.Context, key ChannelKey) ([]stats.Sample, error) {
	if err := ctxError(ctx); err != nil {
		return nil, err
	}
	return c.Samples(key)
}

// HostLoadCtx implements ContextSource.
func (c *Collector) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	if err := ctxError(ctx); err != nil {
		return stats.NoData(), err
	}
	return c.HostLoad(node, span)
}

// DataAgeCtx implements ContextSource.
func (c *Collector) DataAgeCtx(ctx context.Context, key ChannelKey) (float64, error) {
	if err := ctxError(ctx); err != nil {
		return 0, err
	}
	return c.DataAge(key)
}

// canonicalKey orients a directed channel relative to the canonical
// (smaller-name = A) endpoint ordering.
func canonicalKey(global int, from, to string) ChannelKey {
	d := graph.AtoB
	if from > to {
		d = graph.BtoA
	}
	return ChannelKey{Global: global, Dir: d}
}
