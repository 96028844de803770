package collector

import (
	"bytes"
	"context"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// checkpointedRig runs a collector long enough to have real state and
// returns it plus its serialized checkpoint.
func checkpointedRig(t testing.TB) (*rig, []byte) {
	t.Helper()
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.net.SetHostLoad("m-5", 0.25)
	r.clk.RunUntil(40)
	var buf bytes.Buffer
	if err := r.col.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// restoreInto restores a checkpoint into a fresh collector whose clock
// has been advanced to `at` virtual seconds.
func restoreInto(t *testing.T, ckpt []byte, at float64) *Collector {
	t.Helper()
	clk := simclock.New()
	clk.Advance(at)
	col := New(Config{Clock: clk, PollPeriod: 2, PerHopLatency: topology.PerHopLatency})
	info, err := col.RestoreCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != wireVersion {
		t.Fatalf("restored version %d", info.Version)
	}
	return col
}

// TestCheckpointRoundTrip saves, restores into a fresh collector at the
// same virtual time, and asserts Topology/Utilization/Health/DataAge
// agree bit-for-bit.
func TestCheckpointRoundTrip(t *testing.T) {
	r, ckpt := checkpointedRig(t)
	col2 := restoreInto(t, ckpt, float64(r.clk.Now()))

	// Topology: identical structure, kinds, capacities, global IDs.
	t1, err := r.col.Topology()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := col2.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topoToWire(t1), topoToWire(t2)) {
		t.Fatal("topology did not round-trip bit-for-bit")
	}

	// Every channel: Utilization (several spans), Samples, DataAge.
	for _, l := range t1.Graph.Links() {
		for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
			k := t1.Key(l, d)
			for _, span := range []float64{0, 5, 20} {
				u1, e1 := r.col.Utilization(k, span)
				u2, e2 := col2.Utilization(k, span)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("util(%v,%v) error mismatch: %v vs %v", k, span, e1, e2)
				}
				if e1 == nil && !reflect.DeepEqual(u1, u2) {
					t.Fatalf("util(%v,%v) = %+v, restored %+v", k, span, u1, u2)
				}
			}
			s1, e1 := r.col.Samples(k)
			s2, e2 := col2.Samples(k)
			if (e1 == nil) != (e2 == nil) || !reflect.DeepEqual(s1, s2) {
				t.Fatalf("samples(%v) mismatch", k)
			}
			a1, e1 := r.col.DataAge(k)
			a2, e2 := col2.DataAge(k)
			if (e1 == nil) != (e2 == nil) || a1 != a2 {
				t.Fatalf("age(%v) = %v/%v, restored %v/%v", k, a1, e1, a2, e2)
			}
		}
	}

	// Host loads.
	l1, err := r.col.HostLoad("m-5", 20)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := col2.HostLoad("m-5", 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("load = %+v, restored %+v", l1, l2)
	}

	// Health and poll statistics.
	if !reflect.DeepEqual(r.col.Health(), col2.Health()) {
		t.Fatal("health map did not round-trip")
	}
	if r.col.Polls() != col2.Polls() || r.col.PollErrors() != col2.PollErrors() ||
		r.col.Discoveries() != col2.Discoveries() {
		t.Fatalf("poll statistics lost: %d/%d/%d vs %d/%d/%d",
			r.col.Polls(), r.col.PollErrors(), r.col.Discoveries(),
			col2.Polls(), col2.PollErrors(), col2.Discoveries())
	}
}

// TestCheckpointHonestAges: restored at a later virtual time (the
// downtime), reported data ages include the gap instead of resetting.
func TestCheckpointHonestAges(t *testing.T) {
	r, ckpt := checkpointedRig(t)
	saveAt := float64(r.clk.Now())
	const downtime = 60.0
	col2 := restoreInto(t, ckpt, saveAt+downtime)

	topo, _ := col2.Topology()
	k := keyFor(t, topo, "timberline", "whiteface")
	ageBefore, err := r.col.DataAge(k)
	if err != nil {
		t.Fatal(err)
	}
	ageAfter, err := col2.DataAge(k)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ageAfter-(ageBefore+downtime)) > 1e-9 {
		t.Fatalf("age after restart = %v, want %v (pre-crash %v + downtime %v)",
			ageAfter, ageBefore+downtime, ageBefore, downtime)
	}
	// The staleness shows up as decayed accuracy too.
	st, err := col2.Utilization(k, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Age < downtime {
		t.Fatalf("stat age %v does not include downtime %v", st.Age, downtime)
	}
	fresh, _ := r.col.Utilization(k, 20)
	if st.Accuracy >= fresh.Accuracy {
		t.Fatalf("accuracy did not decay across downtime: %v >= %v", st.Accuracy, fresh.Accuracy)
	}
}

// TestWarmStartSkipsDiscovery: a restored collector starts warm — no
// new discovery cycle; polling resumes on the restored topology.
func TestWarmStartSkipsDiscovery(t *testing.T) {
	r, ckpt := checkpointedRig(t)
	preDiscoveries := r.col.Discoveries()

	// Fresh collector over the same live network and clock.
	col2 := New(Config{
		Client:        r.col.cfg.Client,
		Clock:         r.clk,
		Addrs:         r.col.cfg.Addrs,
		PollPeriod:    2,
		PerHopLatency: topology.PerHopLatency,
	})
	if _, err := col2.RestoreCheckpoint(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	if err := col2.Start(); err != nil {
		t.Fatal(err)
	}
	defer col2.Stop()
	if got := col2.Discoveries(); got != preDiscoveries {
		t.Fatalf("warm start ran a new discovery: %d -> %d", preDiscoveries, got)
	}
	// Queries are answerable immediately, and polling still works: new
	// samples keep arriving on the restored windows.
	topo2, err := col2.Topology()
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor(t, topo2, "timberline", "whiteface")
	before, err := col2.Samples(k)
	if err != nil {
		t.Fatal(err)
	}
	r.clk.RunUntil(r.clk.Now() + 10)
	after, err := col2.Samples(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("polling did not resume after warm start: %d -> %d samples", len(before), len(after))
	}
}

// TestCheckpointRejection: corrupt, truncated, alien, and
// wrong-version files are rejected with a clear error and leave the
// collector untouched.
func TestCheckpointRejection(t *testing.T) {
	_, ckpt := checkpointedRig(t)

	expectErr := func(name string, data []byte, wantSub string) {
		t.Helper()
		if _, err := restoreFresh(t, data); err == nil {
			t.Fatalf("%s: restore succeeded", name)
		} else if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q lacks %q", name, err, wantSub)
		}
	}

	expectErr("empty", nil, "header")
	expectErr("garbage", []byte("definitely not a checkpoint file"), "")
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		expectErr("truncated", ckpt[:int(float64(len(ckpt))*frac)], "")
	}

	body := ckpt[len(checkpointMagic):]
	expectErr("alien magic", append([]byte("SOMETHING!"), body...), "not a collector checkpoint")
	vnext := append([]byte(checkpointMagic), wireVersion+1)
	expectErr("future version", append(vnext, body[1:]...), "unsupported checkpoint version")
	gobV1, err := os.ReadFile("testdata/checkpoint-gob-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	expectErr("gob checkpoint of the previous format", gobV1, "not a collector checkpoint")

	// Bit-flip corruption inside the dump body. A single flipped byte
	// may survive decoding (it can land in sample payload); only
	// structural corruption must error. It must never panic, and a
	// refusal must not half-apply (restoreFresh checks).
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/2] ^= 0xff
	if _, err := restoreFresh(t, flipped); err == nil {
		t.Log("bit flip decoded cleanly (landed in payload)")
	}
}

// restoreFresh restores data into a fresh collector, failing t if a
// refused restore left any trace: a topology or a moved DataVersion.
func restoreFresh(t testing.TB, data []byte) (*Collector, error) {
	t.Helper()
	col := New(Config{Clock: simclock.New(), PollPeriod: 2})
	_, err := col.RestoreCheckpoint(bytes.NewReader(data))
	if err != nil {
		if _, terr := col.Topology(); terr == nil {
			t.Fatalf("collector has a topology after a refused restore (%v)", err)
		}
		if v, _ := col.DataVersion(); v != 0 {
			t.Fatalf("DataVersion moved to %d by a refused restore (%v)", v, err)
		}
	}
	return col, err
}

// TestRestoreRejectsNonFiniteSamples: an image carrying a NaN or +Inf
// sample is refused by both readers of the file, and the refused
// restore leaves the collector unchanged.
func TestRestoreRejectsNonFiniteSamples(t *testing.T) {
	_, ckpt := checkpointedRig(t)
	poison := map[string]func(f *checkpoint){
		"NaN value": func(f *checkpoint) {
			for k, ss := range f.image.Channels {
				ss[len(ss)-1].Value = math.NaN()
				f.image.Channels[k] = ss
				return
			}
		},
		"+Inf time": func(f *checkpoint) {
			for id, ss := range f.image.Loads {
				ss[len(ss)-1].Time = math.Inf(1)
				f.image.Loads[id] = ss
				return
			}
		},
	}
	for name, mutate := range poison {
		f, err := readCheckpoint(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		mutate(f)
		bad := f.marshal()
		if _, err := restoreFresh(t, bad); err == nil {
			t.Fatalf("%s: RestoreCheckpoint accepted the image", name)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s: error %q does not name the non-finite sample", name, err)
		}
		if _, err := LoadHistory(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s: LoadHistory accepted the image", name)
		}
	}
}

// lockedFeedCol serializes a collector and its virtual clock behind one
// mutex so watch evaluators, a restore storm, and the test's clock
// driver can interleave under -race. (Production deployments get this
// ordering from the TCP server; in-process tests must provide it.)
type lockedFeedCol struct {
	mu  *sync.Mutex
	col *Collector
}

func (l *lockedFeedCol) Topology() (*Topology, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.Topology()
}

func (l *lockedFeedCol) Utilization(key ChannelKey, span float64) (stats.Stat, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.Utilization(key, span)
}

func (l *lockedFeedCol) Samples(key ChannelKey) ([]stats.Sample, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.Samples(key)
}

func (l *lockedFeedCol) HostLoad(node graph.NodeID, span float64) (stats.Stat, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.HostLoad(node, span)
}

func (l *lockedFeedCol) DataAge(key ChannelKey) (float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.DataAge(key)
}

func (l *lockedFeedCol) FeedSince(cur *FeedCursor) (*FeedPayload, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.FeedSince(cur)
}

func (l *lockedFeedCol) DataVersion() (uint64, bool) { return l.col.DataVersion() }

// TestRestoreCheckpointRacingSubscriptions: a restore replaces the
// collector's windows wholesale while watch/feed subscriptions are
// live. Every feed subscriber must observe the replacement as a
// Resync-marked Full payload — never a torn delta that chains new
// samples onto windows that no longer exist, and never a Resync mark
// without the self-contained snapshot that makes it safe to apply in
// place. Run under -race: restores, polls, and subscription evaluators
// all interleave here.
func TestRestoreCheckpointRacingSubscriptions(t *testing.T) {
	cases := []struct {
		name  string
		kinds []string
	}{
		{"one feed", []string{WatchFeed}},
		{"feed plus version watch", []string{WatchFeed, WatchVersion}},
		{"two independent feeds", []string{WatchFeed, WatchFeed}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, ckpt := checkpointedRig(t)
			defer r.col.Stop()
			var mu sync.Mutex
			locked := &lockedFeedCol{mu: &mu, col: r.col}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			type result struct {
				updates     int
				resyncFulls int
				torn        string // first violation, "" if clean
			}
			results := make([]result, len(tc.kinds))
			started := make([]chan struct{}, len(tc.kinds))
			var wg sync.WaitGroup
			for i, kind := range tc.kinds {
				h := watchLocal(ctx, locked, r.col, WatchRequest{Kind: kind}, DefaultWatchQueueDepth)
				defer h.Cancel()
				started[i] = make(chan struct{})
				wg.Add(1)
				go func(i, idx int, kind string, h *WatchHandle) {
					defer wg.Done()
					res := &results[i]
					lastEpoch := uint64(0)
					// Per-channel newest sample time the subscriber has
					// applied; nil means "must receive a Full first".
					var last map[ChannelKey]float64
					firstDone := false
					for u := range h.C {
						res.updates++
						if !firstDone {
							firstDone = true
							close(started[i])
						}
						if u.Err != "" {
							continue
						}
						if u.Epoch < lastEpoch && res.torn == "" {
							res.torn = "epoch went backwards"
						}
						lastEpoch = u.Epoch
						if kind != WatchFeed {
							continue
						}
						p := u.Feed
						if p == nil {
							continue
						}
						if u.Overflowed {
							// Queue fold: continuity is unknowable until
							// the next Full; a real replica resubscribes.
							last = nil
							continue
						}
						if u.Resync && !p.Full && res.torn == "" {
							res.torn = "Resync mark without a Full payload"
						}
						if p.Full {
							if u.Resync {
								res.resyncFulls++
							}
							last = make(map[ChannelKey]float64)
							for k, ss := range p.Channels {
								last[k] = ss[len(ss)-1].Time
							}
							continue
						}
						if last == nil {
							if res.torn == "" {
								res.torn = "delta before any Full payload"
							}
							continue
						}
						// A delta must extend the applied windows: its
						// samples strictly newer, per channel. A delta
						// computed against pre-restore windows ships
						// samples at or before what we already hold.
						for k, ss := range p.Channels {
							if prev, ok := last[k]; ok && ss[0].Time <= prev && res.torn == "" {
								res.torn = "torn delta: sample not newer than applied window"
							}
							last[k] = ss[len(ss)-1].Time
						}
					}
				}(i, i, kind, h)
			}

			// Let every subscription receive its baseline before the storm.
			advance := func(d float64) {
				mu.Lock()
				r.clk.Advance(d)
				mu.Unlock()
				time.Sleep(time.Millisecond) // let evaluators drain
			}
			advance(2)
			for _, ch := range started {
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatal("subscription never delivered its baseline update")
				}
			}

			// The storm: restores from another goroutine racing poll
			// rounds and subscription evaluation.
			const restores = 6
			restoreDone := make(chan error, 1)
			go func() {
				for i := 0; i < restores; i++ {
					mu.Lock()
					_, err := r.col.RestoreCheckpoint(bytes.NewReader(ckpt))
					mu.Unlock()
					if err != nil {
						restoreDone <- err
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				restoreDone <- nil
			}()
			for i := 0; i < 30; i++ {
				advance(2)
			}
			if err := <-restoreDone; err != nil {
				t.Fatalf("restore: %v", err)
			}
			advance(2) // one more round so the final restore's Full ships

			cancel()
			wg.Wait()
			for i, res := range results {
				if res.torn != "" {
					t.Errorf("subscriber %d (%s): %s", i, tc.kinds[i], res.torn)
				}
				if tc.kinds[i] == WatchFeed && res.resyncFulls == 0 {
					t.Errorf("subscriber %d: no Resync-marked Full observed across %d restores (%d updates)",
						i, restores, res.updates)
				}
			}
		})
	}
}
