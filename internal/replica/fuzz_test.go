package replica

import (
	"testing"
	"time"

	"repro/internal/collector"
)

// FuzzDecodeDelta feeds arbitrary bytes through the wire decode + store
// apply path a replica runs on every feed update. The payload rides
// inside a WatchUpdate on the wire, but the target decodes the payload
// shape directly: that is where apply-side invariants live. The replica
// trusts its collector, but a partition can truncate or corrupt a
// stream mid-frame; whatever arrives, the apply must return an error
// (which triggers a resync) — never panic, never install a corrupt
// store.
func FuzzDecodeDelta(f *testing.F) {
	// Seed with real payloads: one full snapshot and a couple of
	// deltas from a live testbed collector.
	r := newRig(f)
	cur := &collector.FeedCursor{}
	full, err := r.col.FeedSince(cur)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(collector.EncodeFeedPayload(full))
	for i := 0; i < 2; i++ {
		r.clk.Advance(2)
		d, err := r.col.FeedSince(cur)
		if err != nil {
			f.Fatal(err)
		}
		if d != nil {
			f.Add(collector.EncodeFeedPayload(d))
		}
	}
	// A hand-rolled hostile payload: out-of-order samples.
	evil := *full
	evil.Full = false
	f.Add(collector.EncodeFeedPayload(&evil))

	wall := time.Unix(1000, 0)
	base, err := applyFull(full, wall)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := collector.DecodeFeedPayload(data)
		if err != nil {
			return // corrupt frame: the wire layer would drop it
		}
		// Apply as a full snapshot and as a delta against a real
		// store; errors are fine (they trigger resync), panics and
		// mutations of the base store are not.
		if st, err := applyFull(p, wall); err == nil && st.topo == nil {
			t.Fatal("applyFull succeeded without topology")
		}
		epochBefore := base.epoch
		next, err := base.applyDelta(p, wall)
		if base.epoch != epochBefore {
			t.Fatal("applyDelta mutated the base store")
		}
		if err != nil {
			return
		}
		// An accepted delta must keep per-window sample monotonicity.
		for k, w := range next.channels {
			s := w.Samples()
			for i := 1; i < len(s); i++ {
				if s[i].Time <= s[i-1].Time {
					t.Fatalf("channel %v: non-monotone samples after accepted delta", k)
				}
			}
		}
	})
}
