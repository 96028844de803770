package main

import (
	"errors"
	"math"
	"sort"

	"repro/internal/collector"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted values
// (NaN when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples. The tolerance keeps binary rounding of p (99.9 is not exact)
// from pushing an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond returns how many of n samples lie beyond the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// supported reports whether n samples can carry a p-th percentile: at
// least minBeyond samples beyond it.
func supported(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// median of unsorted values (NaN when empty); v is sorted in place.
func median(v []float64) float64 {
	sort.Float64s(v)
	return percentile(v, 50)
}

// outcome is what became of one attempted operation. Every attempt has
// exactly one.
type outcome int

const (
	outOK      outcome = iota
	outError           // the call failed
	outRefused         // typed refusal: shed, busy, stale, deadline
	outDropped         // open loop: arrival found every in-flight slot taken
	outWrong           // answered, but the answer failed a check
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "error", "refused", "dropped", "wrong"}

// tally counts attempts by outcome.
type tally [numOutcomes]int

func (t *tally) add(o outcome) { t[o]++ }

func (t *tally) attempted() int {
	n := 0
	for _, v := range t {
		n += v
	}
	return n
}

func (t *tally) failed() int { return t.attempted() - t[outOK] }

// failedFrac is failed over attempted (0 when nothing was attempted).
func (t *tally) failedFrac() float64 {
	if a := t.attempted(); a > 0 {
		return float64(t.failed()) / float64(a)
	}
	return 0
}

// classify maps a call error to its outcome.
func classify(err error) outcome {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, collector.ErrLoadShed), errors.Is(err, collector.ErrServerBusy),
		errors.Is(err, collector.ErrStaleReplica), errors.Is(err, collector.ErrNotLeader),
		errors.Is(err, collector.ErrDeadlineExceeded):
		return outRefused
	default:
		return outError
	}
}
