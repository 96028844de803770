package remos_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/topology"
	"repro/remos"
)

func TestTestbedQuickPath(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(30)

	if got := len(tb.Hosts()); got != 8 {
		t.Fatalf("hosts = %d", got)
	}
	st, err := tb.Modeler.AvailableBandwidth("m-4", "m-7", remos.TFHistory(20))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Median-40e6) > 1e5 {
		t.Fatalf("availability = %v", st)
	}
	if tb.Now() < 30 {
		t.Fatalf("Now = %v", tb.Now())
	}
}

func TestTestbedAfter(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	var at float64
	tb.After(5, "cb", func(now float64) { at = now })
	tb.Run(10)
	if at != 5 {
		t.Fatalf("callback at %v", at)
	}
}

func TestGetGraphAndFlowInfoViaFacade(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(10)
	g, err := tb.Modeler.GetGraph([]remos.NodeID{"m-1", "m-8"}, remos.TFCapacity())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Links) != 1 {
		t.Fatalf("logical links = %d", len(g.Links))
	}
	fi, err := tb.Modeler.QueryFlowInfo(nil, nil,
		[]remos.Flow{{Src: "m-1", Dst: "m-8", Kind: remos.IndependentFlow}}, remos.TFCapacity())
	if err != nil {
		t.Fatal(err)
	}
	if fi.Independent[0].Bandwidth.Median != 100e6 {
		t.Fatalf("bw = %v", fi.Independent[0].Bandwidth.Median)
	}
}

func TestSelectNodesFacade(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 90e6)
	tb.StartBlast("m-8", "m-6", 90e6)
	tb.Run(20)
	sel, err := remos.SelectNodes(tb.Modeler, remos.TestbedHosts(), "m-4", 4, remos.TFHistory(15))
	if err != nil {
		t.Fatal(err)
	}
	want := map[remos.NodeID]bool{"m-1": true, "m-2": true, "m-4": true, "m-5": true}
	for _, n := range sel {
		if !want[n] {
			t.Fatalf("selected %v", sel)
		}
	}
}

func TestServeCollectorAndDial(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartCBR("m-1", "m-2", 20e6)
	tb.Run(20)
	addr, shutdown, err := tb.ServeCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	src, err := remos.DialCollector(addr)
	if err != nil {
		t.Fatal(err)
	}
	mod := remos.NewModeler(remos.Config{Source: src})
	st, err := mod.AvailableBandwidth("m-1", "m-2", remos.TFHistory(15))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Median-80e6) > 1e5 {
		t.Fatalf("availability over TCP = %v", st)
	}
}

func TestMergeSourcesFacade(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(10)
	merged := remos.MergeSources(tb.Collector)
	mod := remos.NewModeler(remos.Config{Source: merged})
	if _, err := mod.GetGraph(nil, remos.TFCapacity()); err != nil {
		t.Fatal(err)
	}
}

func TestToolchainRunProgram(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(5)
	rt := tb.NewRuntime()
	rep := rt.RunToCompletion(remos.FFTProgram(256, 1), []remos.NodeID{"m-1", "m-2"})
	if rep.Elapsed() <= 0 {
		t.Fatalf("elapsed = %v", rep.Elapsed())
	}
	// Custom program through the public types.
	prog := &remos.Program{
		Name:       "custom",
		Iterations: 2,
		Steps: []remos.ProgramStep{
			{Name: "w", WorkPerNode: func(p int) float64 { return 1.0 / float64(p) }},
			{Name: "ring", Comm: remos.RingPattern(1e5)},
		},
	}
	rep = rt.RunToCompletion(prog, []remos.NodeID{"m-4", "m-5"})
	if len(rep.IterationTimes) != 2 {
		t.Fatalf("iterations = %d", len(rep.IterationTimes))
	}
}

func TestCustomTopologyFacade(t *testing.T) {
	tb, err := remos.NewTestbedOn(topology.Dumbbell(2, 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(10)
	st, err := tb.Modeler.AvailableBandwidth("l0", "r0", remos.TFCapacity())
	if err != nil {
		t.Fatal(err)
	}
	if st.Median != 10e6 {
		t.Fatalf("bottleneck = %v", st.Median)
	}
}

func TestOnOffFacade(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	gen := tb.StartOnOff("m-1", "m-2", 50e6, 1, 1, 42)
	tb.Run(60)
	st, err := tb.Modeler.AvailableBandwidth("m-1", "m-2", remos.TFHistory(50))
	if err != nil {
		t.Fatal(err)
	}
	if st.IQR() <= 0 {
		t.Fatalf("bursty traffic produced no spread: %v", st)
	}
	gen.Stop()
}

func TestHistorySaveLoadViaFacade(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 45e6)
	tb.Run(30)
	var buf bytes.Buffer
	if err := tb.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := remos.LoadHistorySource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := remos.LoadHistorySource(bytes.NewReader([]byte("junk"))); err == nil || bad != nil {
		t.Fatalf("junk history: source %v, error %v (want nil source and an error)", bad, err)
	}
	mod := remos.NewModeler(remos.Config{Source: src})
	st, err := mod.AvailableBandwidth("m-4", "m-7", remos.TFHistory(20))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Median-55e6) > 1e5 {
		t.Fatalf("offline availability = %v", st)
	}
}

func TestWatchBandwidthViaFacade(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(10)
	events := 0
	w, err := tb.WatchBandwidth(remos.WatchConfig{
		Src: "m-4", Dst: "m-7",
		Timeframe: remos.TFHistory(6),
		Low:       30e6, High: 60e6,
		Period: 2,
	}, func(remos.WatchEvent) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 90e6)
	tb.Run(30)
	if events != 1 {
		t.Fatalf("events = %d", events)
	}
	w.Stop()
}

func TestSelectNodesComputeAwareViaFacade(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.Network.SetHostLoad("m-5", 0.9)
	tb.Run(15)
	sel, err := remos.SelectNodesComputeAware(tb.Modeler, remos.TestbedHosts(), "m-4", 3, remos.TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sel {
		if n == "m-5" {
			t.Fatalf("selection %v includes the saturated host", sel)
		}
	}
}
