package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stats"
)

// Checks every answer must pass. A failed check makes the operation's
// outcome outWrong and the run incorrect.

// capSlack absorbs floating-point noise when an availability or
// utilization equals the capacity it is measured against.
const capSlack = 1e-9

// advanceEpoch enforces that the epoch stamps one connection sees are
// nonzero and never go backwards.
func advanceEpoch(last *uint64, epoch uint64) error {
	if epoch == 0 {
		return fmt.Errorf("epoch stamp is zero")
	}
	if epoch < *last {
		return fmt.Errorf("epoch went back from %d to %d", *last, epoch)
	}
	*last = epoch
	return nil
}

// checkStat requires ordered, finite quartiles within [0, capacity].
// A zero capacity skips the upper bound.
func checkStat(what string, s stats.Stat, capacity float64) error {
	if !s.Ordered() {
		return fmt.Errorf("%s: quartiles out of order: %+v", what, s)
	}
	for _, v := range []float64{s.Min, s.Q1, s.Median, s.Q3, s.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%s: value %g not finite and non-negative", what, v)
		}
		if capacity > 0 && v > capacity*(1+capSlack) {
			return fmt.Errorf("%s: value %g above capacity %g", what, v, capacity)
		}
	}
	return nil
}

// checkGraph checks a GetGraph answer over the queried hosts.
func checkGraph(g *core.Graph, hosts []graph.NodeID, last *uint64) error {
	if err := advanceEpoch(last, g.Epoch); err != nil {
		return err
	}
	for _, h := range hosts {
		if g.Node(h) == nil {
			return fmt.Errorf("graph lacks queried host %s", h)
		}
	}
	if len(g.Links) == 0 {
		return fmt.Errorf("graph has no links")
	}
	for _, l := range g.Links {
		c := l.Capacity.Median
		if err := checkStat("link capacity", l.Capacity, 0); err != nil {
			return err
		}
		for d, a := range l.Avail {
			if err := checkStat(fmt.Sprintf("link %s-%s avail[%d]", l.A, l.B, d), a, c); err != nil {
				return err
			}
		}
		if err := checkStat("link latency", l.Latency, 0); err != nil {
			return err
		}
	}
	return nil
}

// checkFlows checks a flow answer for n variable flows.
func checkFlows(fi *core.FlowInfo, n int, maxCap float64, last *uint64) error {
	if err := advanceEpoch(last, fi.Epoch); err != nil {
		return err
	}
	if len(fi.Variable) != n {
		return fmt.Errorf("flow answer has %d variable results, want %d", len(fi.Variable), n)
	}
	for _, r := range fi.Variable {
		if err := checkStat("flow bandwidth", r.Bandwidth, maxCap); err != nil {
			return err
		}
		if err := checkStat("flow latency", r.Latency, 0); err != nil {
			return err
		}
	}
	return nil
}

// checkMatrix checks a matrix answer: every entry valid on a healthy
// fabric, off-diagonal bandwidths finite and within capacity.
func checkMatrix(mi *core.MatrixInfo, n int, maxCap float64, last *uint64) error {
	if err := advanceEpoch(last, mi.Epoch); err != nil {
		return err
	}
	if len(mi.Bandwidth) != n || len(mi.Valid) != n || len(mi.Latency) != n {
		return fmt.Errorf("matrix has %d rows, want %d", len(mi.Bandwidth), n)
	}
	for i := range mi.Bandwidth {
		if len(mi.Bandwidth[i]) != n || len(mi.Valid[i]) != n || len(mi.Latency[i]) != n {
			return fmt.Errorf("matrix row %d has %d columns, want %d", i, len(mi.Bandwidth[i]), n)
		}
		for j, bw := range mi.Bandwidth[i] {
			if !mi.Valid[i][j] {
				return fmt.Errorf("matrix entry %s->%s invalid on a healthy fabric", mi.Srcs[i], mi.Dsts[j])
			}
			if lat := mi.Latency[i][j]; math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
				return fmt.Errorf("matrix latency %s->%s = %g", mi.Srcs[i], mi.Dsts[j], lat)
			}
			if mi.Srcs[i] == mi.Dsts[j] {
				continue // the kernel answers +Inf on the diagonal
			}
			if math.IsNaN(bw) || math.IsInf(bw, 0) || bw < 0 || bw > maxCap*(1+capSlack) {
				return fmt.Errorf("matrix bandwidth %s->%s = %g outside [0, %g]", mi.Srcs[i], mi.Dsts[j], bw, maxCap)
			}
		}
	}
	return nil
}

// sameJSON reports whether a and b encode to identical bytes. JSON
// writes each float64 in its shortest round-tripping form, so equal
// bytes mean equal values.
func sameJSON(a, b any) (bool, error) {
	ea, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	eb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ea, eb), nil
}

// graphBody is the part of a GetGraph answer two Modelers must agree
// on; the epoch is each Modeler's own snapshot counter.
func graphBody(g *core.Graph) any {
	return struct {
		Nodes     []core.NodeInfo
		Links     []core.LinkInfo
		Timeframe core.Timeframe
	}{g.Nodes, g.Links, g.Timeframe}
}

func flowBody(fi *core.FlowInfo) any {
	return struct {
		Fixed, Variable, Independent []core.FlowResult
		Timeframe                    core.Timeframe
	}{fi.Fixed, fi.Variable, fi.Independent, fi.Timeframe}
}

// matrixBody carries bandwidths as their bit patterns: the diagonal is
// +Inf, which JSON cannot encode.
func matrixBody(mi *core.MatrixInfo) any {
	bw := make([][]string, len(mi.Bandwidth))
	for i, row := range mi.Bandwidth {
		bw[i] = make([]string, len(row))
		for j, v := range row {
			bw[i][j] = fmt.Sprint(math.Float64bits(v))
		}
	}
	return struct {
		Bandwidth [][]string
		Latency   [][]float64
		Valid     [][]bool
	}{bw, mi.Latency, mi.Valid}
}

// statBody drops the fields a read replica extrapolates from its own
// wall clock between feed updates (Age, and Accuracy, which decays
// with Age), so two reads of one replica epoch compare equal.
func statBody(s stats.Stat) any {
	return [6]float64{s.Min, s.Q1, s.Median, s.Q3, s.Max, float64(s.Samples)}
}
