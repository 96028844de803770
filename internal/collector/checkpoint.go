package collector

import (
	"fmt"
	"io"
	"maps"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Checkpoint/warm-restart and history: a restarted collector restores
// its saved state and answers queries immediately, with honest data
// ages that include the downtime, instead of erroring through a cold
// discovery-and-poll warmup. The same file is the paper's "database of
// historical load information": LoadHistory serves it offline.
//
// Collector state has one serialized form, the state image: the Full
// FeedPayload a new feed subscription receives first. A checkpoint file
// is
//
//	magic    "REMOS-CKPT"
//	version  1 byte, wireVersion: frames and files share one version
//	image    the Full FeedPayload in the wire codec (wire.go)
//	trailer  counter baselines, polls, pollErrors, discoveries, and the
//	         save wall time (UnixNano)
//
// encoded by a canonical writer, so the same state always yields the
// same bytes. A corrupt, truncated or foreign file is refused whole.

// checkpointMagic opens every checkpoint file, ahead of the version byte.
const checkpointMagic = "REMOS-CKPT"

// checkpoint is a decoded checkpoint file.
type checkpoint struct {
	image FeedPayload
	ckptTrailer
}

// ckptTrailer is what a resuming collector needs beyond the state
// image: the raw counter baselines its next poll differences against,
// its poll statistics, and the wall time of the save, which lets a
// restarting daemon translate real downtime into virtual seconds.
type ckptTrailer struct {
	counters    map[ChannelKey]counterState
	polls       uint64
	pollErrors  uint64
	discoveries uint64
	savedWall   int64
}

func (f *checkpoint) encodeWire(w *wireWriter) {
	f.image.encodeWire(w)
	writeMap(w, f.counters, (*wireWriter).channelKey, func(w *wireWriter, cs counterState) {
		w.f64(cs.at)
		w.uvarint(uint64(cs.octets))
		w.bool(cs.valid)
	})
	w.uvarint(f.polls)
	w.uvarint(f.pollErrors)
	w.uvarint(f.discoveries)
	w.uvarint(uint64(f.savedWall))
}

func (f *checkpoint) decodeWire(r *wireReader) {
	f.image.decodeWire(r)
	f.counters = readMap(r, minChannelKey+3, (*wireReader).channelKey, func(r *wireReader) counterState {
		cs := counterState{at: r.f64()}
		octets := r.uvarint()
		if octets > math.MaxUint32 {
			r.fail(fmt.Errorf("collector: counter value %d exceeds 32 bits", octets))
		}
		cs.octets = uint32(octets)
		cs.valid = r.bool()
		return cs
	})
	f.polls = r.uvarint()
	f.pollErrors = r.uvarint()
	f.discoveries = r.uvarint()
	f.savedWall = int64(r.uvarint())
}

// marshal encodes f as a whole checkpoint file.
func (f *checkpoint) marshal() []byte {
	w := wireWriter{b: append([]byte(checkpointMagic), wireVersion), canonical: true}
	f.encodeWire(&w)
	return w.b
}

// readCheckpoint reads and decodes a whole checkpoint file, checking the
// magic and version before the body.
func readCheckpoint(r io.Reader) (*checkpoint, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("collector: reading checkpoint: %w", err)
	}
	if len(b) <= len(checkpointMagic) {
		return nil, fmt.Errorf("collector: checkpoint header truncated (%d bytes)", len(b))
	}
	if magic := b[:len(checkpointMagic)]; string(magic) != checkpointMagic {
		return nil, fmt.Errorf("collector: not a collector checkpoint (magic %q)", magic)
	}
	body := b[len(checkpointMagic):]
	if v := body[0]; v != wireVersion {
		return nil, fmt.Errorf("collector: unsupported checkpoint version %d (this build speaks %d): %w",
			v, wireVersion, ErrWireVersion)
	}
	f := new(checkpoint)
	if err := unmarshalWire(body, f); err != nil {
		return nil, fmt.Errorf("collector: corrupt checkpoint: %w", err)
	}
	return f, nil
}

// CheckpointInfo describes a restored checkpoint.
type CheckpointInfo struct {
	// SavedAt is the virtual time at which the checkpoint was taken.
	// The caller should advance its clock to at least SavedAt (plus the
	// virtual equivalent of the downtime) before starting the
	// collector, so restored samples stay in the past and reported data
	// ages are honest.
	SavedAt float64
	// SavedAtWall is the wall time of the save.
	SavedAtWall time.Time
	// Version is the format version read from the file: the wire
	// codec's version byte.
	Version int
}

// SaveCheckpoint writes the collector's full state to w: the state
// image FeedSince ships to a fresh subscription, plus the trailer.
func (c *Collector) SaveCheckpoint(w io.Writer) error {
	wallStart := time.Now()
	defer func() {
		c.tel.Counter("collector.checkpoint.saves").Inc()
		c.tel.Quantile("collector.checkpoint.save_ms", 0).
			Observe(float64(time.Since(wallStart)) / float64(time.Millisecond))
	}()
	c.mu.Lock()
	if c.topo == nil {
		c.mu.Unlock()
		return fmt.Errorf("collector: nothing to checkpoint before discovery")
	}
	f := checkpoint{
		image: *c.feedSinceLocked(&FeedCursor{}),
		ckptTrailer: ckptTrailer{
			counters:    maps.Clone(c.counters),
			polls:       c.polls,
			pollErrors:  c.pollErrors,
			discoveries: c.discoveries,
			savedWall:   time.Now().UnixNano(),
		},
	}
	c.mu.Unlock()
	if _, err := w.Write(f.marshal()); err != nil {
		return fmt.Errorf("collector: writing checkpoint: %w", err)
	}
	return nil
}

// RestoreCheckpoint loads state saved by SaveCheckpoint into c,
// replacing any existing state, counter baselines and poll statistics
// included. It decodes and validates the whole file before touching the
// collector, so a corrupt or truncated file leaves c unchanged.
func (c *Collector) RestoreCheckpoint(r io.Reader) (CheckpointInfo, error) {
	f, err := readCheckpoint(r)
	if err != nil {
		return CheckpointInfo{}, err
	}
	if err := c.install(&f.image, &f.ckptTrailer); err != nil {
		return CheckpointInfo{}, fmt.Errorf("collector: corrupt checkpoint: %w", err)
	}
	c.tel.Counter("collector.checkpoint.restores").Inc()
	return CheckpointInfo{
		SavedAt:     f.image.Now,
		SavedAtWall: time.Unix(0, f.savedWall),
		Version:     wireVersion,
	}, nil
}

// LoadHistory reads a checkpoint file and returns its state as a
// never-started Collector: a Source that answers exactly as the saved
// collector did at the instant of the save, for offline analysis
// (post-mortems, capacity planning, tests over recorded traces). Its
// clock stands at the save's virtual time, and its windows and accuracy
// half-life are the saved collector's.
func LoadHistory(r io.Reader) (*Collector, error) {
	f, err := readCheckpoint(r)
	if err != nil {
		return nil, fmt.Errorf("collector: loading history: %w", err)
	}
	p := &f.image
	clk := simclock.New()
	halfLife := p.HalfLife
	if !(halfLife > 0) {
		halfLife = -1 // the image says decay was off
	}
	c := New(Config{
		Clock:         clk,
		PollPeriod:    p.PollPeriod,
		WindowLen:     p.SafeWindowLen(),
		WindowAge:     p.WindowAge,
		StaleHalfLife: halfLife,
	})
	if err := c.install(p, &f.ckptTrailer); err != nil {
		return nil, fmt.Errorf("collector: loading history: %w", err)
	}
	clk.Advance(simclock.Duration(p.Now)) // install checked it is finite
	return c, nil
}

// install replaces c's measurement state with the state image p (a Full
// FeedPayload): the one path by which a checkpoint restore, a loaded
// history and a standby's full feed sync take on state. Windows are
// rebuilt outside the lock at c's own bounds, every sample passes
// AddSamples, and nothing is installed until all of it has, so an image
// that fails validation leaves c unchanged. tr, when non-nil, also
// installs a checkpoint's counter baselines and poll statistics;
// without it the counters start empty and the first poll re-baselines
// each one rather than fabricating a rate across the gap. The data
// version advances to the image's epoch (always by at least one).
func (c *Collector) install(p *FeedPayload, tr *ckptTrailer) error {
	if !p.Full {
		return fmt.Errorf("collector: state image is not a full payload")
	}
	if !(p.Now >= 0 && p.Now <= math.MaxFloat64) {
		return fmt.Errorf("collector: state image clock %v", p.Now)
	}
	topo, err := p.Topology()
	if err != nil {
		return err
	}
	if topo == nil {
		return fmt.Errorf("collector: state image without topology")
	}
	windows := make(map[ChannelKey]*stats.Window, len(p.Channels))
	for k, samples := range p.Channels {
		if windows[k], err = c.windowOf(samples); err != nil {
			return err
		}
	}
	loads := make(map[graph.NodeID]*stats.Window, len(p.Loads))
	for id, samples := range p.Loads {
		if loads[graph.NodeID(id)], err = c.windowOf(samples); err != nil {
			return err
		}
	}
	capacity := make(map[ChannelKey]float64, len(p.Capacity))
	maps.Copy(capacity, p.Capacity)
	counters := make(map[ChannelKey]counterState)
	if tr != nil && tr.counters != nil {
		counters = tr.counters // decoded for this install alone
	}

	c.mu.Lock()
	c.topo = topo
	c.counters = counters
	c.windows = windows
	c.capacity = capacity
	c.loads = loads
	c.health = healthFrom(p.Health)
	if tr != nil {
		c.polls = tr.polls
		c.pollErrors = tr.pollErrors
		c.discoveries = tr.discoveries
	}
	// Every window was replaced wholesale: feed subscriptions must
	// re-snapshot rather than delta against the old state.
	c.stateGen++
	c.mu.Unlock()
	advanceVersionTo(&c.dataVersion, p.Epoch)
	c.notifyVersion()
	return nil
}

// windowOf builds a window at c's bounds holding the shipped samples.
func (c *Collector) windowOf(samples []stats.Sample) (*stats.Window, error) {
	w := stats.NewWindow(c.cfg.WindowLen, c.cfg.WindowAge)
	if err := AddSamples(w, samples); err != nil {
		return nil, err
	}
	return w, nil
}

// healthFrom converts a shipped health map to the collector's own form.
func healthFrom(m map[string]AgentHealth) map[graph.NodeID]*AgentHealth {
	health := make(map[graph.NodeID]*AgentHealth, len(m))
	for id, h := range m {
		health[graph.NodeID(id)] = &h
	}
	return health
}
