package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// Open-loop generator limits.
const (
	maxInflight = 512 // pipelined ops in flight across the connections; never binds on a healthy run
	// lateLimit: a run whose generator dispatched its arrivals later
	// than this at the 99th percentile fell behind its schedule and is
	// invalid.
	lateLimit = 100 * time.Millisecond
	// maxWrongShown bounds the wrong-answer messages a run keeps.
	maxWrongShown = 5
	// windowLen is the sampling interval: rates and costs are reported
	// as the median over the run's windows, so a burst of outside load
	// moves a few windows rather than the result.
	windowLen = time.Second
)

// phase is the measured part of one run on one rig.
type phase struct {
	setups  []float64 // seconds per rig set-up
	tally   tally
	done    []completion // completed ops, in completion order
	lat     []float64    // ms per completed op, sorted
	marks   []mark       // window boundaries
	elapsed float64      // seconds
	gcs     uint32
	rssMB   float64 // process peak (getrusage), set-ups included
	// rssSampledMB is the highest resident set sampled at the phase's
	// window boundaries: unlike rssMB it belongs to this phase alone.
	rssSampledMB float64
	epochs       int
	rounds       []float64 // ms per poll round (writer clock advance)
	lags         []float64 // ms from a collector poll round to the replica reaching it
	late         []float64 // ms the open-loop generator dispatched each arrival late
	compared     int       // differential comparisons made
	skipped      int       // comparisons skipped because a poll ran in between
	wrong        []string
	invalid      []string

	layer        map[string]float64 // per-layer metrics (traced runs)
	self         []layerRow
	spans        []span
	spansDropped int
}

func (p *phase) completed() int { return p.tally[outOK] }

// completion is one completed op: when it completed, since the run
// started, and its latency in ms.
type completion struct {
	at time.Duration
	ms float64
}

// mark samples the process's cumulative costs at a window boundary.
type mark struct {
	at      time.Duration // since the run started
	cpu     time.Duration // process user+system CPU time
	mallocs uint64
	rssMB   float64 // current resident set
}

func takeMark(start time.Time) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: time.Since(start), cpu: cpuTime(), mallocs: ms.Mallocs, rssMB: currentRSSMB()}
}

// windowStat is one window's rate and per-op costs.
type windowStat struct{ qps, p50, cpuMS, allocs float64 }

// windows splits the run at its marks; windows without completions
// are left out.
func (p *phase) windows() []windowStat {
	var out []windowStat
	j := 0
	for i := 1; i < len(p.marks); i++ {
		lo, hi := p.marks[i-1], p.marks[i]
		var lat []float64
		for ; j < len(p.done) && p.done[j].at < hi.at; j++ {
			if p.done[j].at >= lo.at {
				lat = append(lat, p.done[j].ms)
			}
		}
		n := float64(len(lat))
		if n == 0 {
			continue
		}
		out = append(out, windowStat{
			qps:    n / (hi.at - lo.at).Seconds(),
			p50:    median(lat),
			cpuMS:  float64(hi.cpu-lo.cpu) / float64(time.Millisecond) / n,
			allocs: float64(hi.mallocs-lo.mallocs) / n,
		})
	}
	return out
}

// recorder collects op outcomes from concurrent ops.
type recorder struct {
	mu    sync.Mutex
	p     *phase
	start time.Time
}

func (rc *recorder) add(o outcome, lat time.Duration) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.p.tally.add(o)
	if o == outOK {
		rc.p.done = append(rc.p.done, completion{time.Since(rc.start), float64(lat) / float64(time.Millisecond)})
	}
}

func (rc *recorder) wrong(err error) {
	rc.mu.Lock()
	if len(rc.p.wrong) < maxWrongShown {
		rc.p.wrong = append(rc.p.wrong, err.Error())
	}
	rc.mu.Unlock()
}

func (rc *recorder) comparison(made bool) {
	rc.mu.Lock()
	if made {
		rc.p.compared++
	} else {
		rc.p.skipped++
	}
	rc.mu.Unlock()
}

// execute runs one op on c: the remote call, timed from start, then the
// answer checks and, for sampled ops, the differential comparison.
func (r *rig) execute(c *conn, op opSpec, start time.Time, rc *recorder) {
	ctx := context.Background()
	var root span
	if r.traced != nil {
		ctx = telemetry.WithTrace(ctx, telemetry.NewTraceID())
		root = r.traced.tr.open(0, telemetry.TraceFrom(ctx), layerQuery, opName(op.kind))
		ctx = withSpan(ctx, root.ID)
	}
	floor := c.maxEpoch.Load()
	seq0, v0 := r.seq.Load(), r.version()
	ans, err := r.call(ctx, c, op)
	lat := time.Since(start)
	if r.traced != nil {
		r.traced.tr.close(&root)
	}
	if err != nil {
		rc.add(classify(err), lat)
		return
	}
	epoch, err := r.check(op, ans, floor)
	if err != nil {
		rc.wrong(err)
		rc.add(outWrong, lat)
		return
	}
	for cur := c.maxEpoch.Load(); epoch > cur && !c.maxEpoch.CompareAndSwap(cur, epoch); cur = c.maxEpoch.Load() {
	}
	if op.compare {
		got, want, err := r.reference(context.Background(), op, ans)
		switch {
		case seq0%2 == 1 || r.seq.Load() != seq0 || r.version() != v0:
			rc.comparison(false) // a poll ran in between: not the same epoch
		case err != nil:
			rc.comparison(true)
			rc.wrong(fmt.Errorf("in-process reference failed: %w", err))
			rc.add(outWrong, lat)
			return
		default:
			rc.comparison(true)
			if same, err := sameJSON(got, want); err != nil || !same {
				rc.wrong(fmt.Errorf("%s answer differs from the in-process Modeler at the same epoch (%v)", opName(op.kind), err))
				rc.add(outWrong, lat)
				return
			}
		}
	}
	rc.add(outOK, lat)
}

func opName(kind int) string {
	return [...]string{"get_graph", "flow_info", "matrix", "utilization"}[kind]
}

// planner draws the run's ops from the seed.
type planner struct {
	r   *rig
	rng *rand.Rand
}

func newPlanner(r *rig, seed int64) *planner {
	return &planner{r: r, rng: rand.New(rand.NewSource(seed * 7919))}
}

func (pl *planner) next() opSpec {
	op := pl.r.plan(pl.rng)
	op.compare = pl.rng.Intn(compareEvery) == 0
	return op
}

// buildRig builds w's serving plane and waits for the first correct
// answer on every connection.
func buildRig(w *workload, seed int64, traced bool) (*rig, error) {
	r := &rig{period: w.period}
	if traced {
		r.traced = newBoundaries()
	}
	if err := w.build(r, seed); err != nil {
		r.close()
		return nil, err
	}
	p := &phase{}
	rc := &recorder{p: p, start: time.Now()}
	for _, c := range r.conns {
		op := r.probe
		op.compare = true
		r.execute(c, op, time.Now(), rc)
		if p.tally[outOK] != 1 || len(p.wrong) > 0 {
			r.close()
			return nil, fmt.Errorf("set-up: first answer on connection %d failed: %v %v", c.id, p.tally, p.wrong)
		}
		p.tally = tally{}
	}
	return r, nil
}

// background runs the window sampler, the writer — the only goroutine
// advancing the virtual clock, one poll period per tick — and, where
// they apply, the freshness observer and the server-span scraper,
// until stop closes.
func (r *rig) background(stop <-chan struct{}, start time.Time, p *phase, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(windowLen)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				p.marks = append(p.marks, takeMark(start))
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(r.period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			var sp span
			if r.traced != nil {
				_, sp = r.traced.poll.begin(nil, "advance")
				r.traced.tr.poll.Store(sp.ID)
			}
			r.seq.Add(1)
			r.clk.Advance(pollPeriod)
			r.seq.Add(1)
			if r.traced != nil {
				r.traced.tr.poll.Store(0)
				r.traced.poll.end(sp)
			}
			p.rounds = append(p.rounds, since(t0))
			p.epochs++
		}
	}()
	if r.rep != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.lags = r.observeFreshness(stop)
		}()
	}
	if r.traced != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[string]bool{}
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					r.traced.tr.scrapeDispatch(r.srvTel, seen)
					return
				case <-tick.C:
					r.traced.tr.scrapeDispatch(r.srvTel, seen)
				}
			}
		}()
	}
}

// observeFreshness records when the upstream collector finishes each
// poll round (its data version bumps) and when the replica's version
// reaches it, and returns the lags in ms.
func (r *rig) observeFreshness(stop <-chan struct{}) []float64 {
	colCh, relCol := r.up.SubscribeVersion()
	defer relCol()
	repCh, relRep := r.rep.SubscribeVersion()
	defer relRep()
	polled := map[uint64]time.Time{}
	type seen struct {
		v  uint64
		at time.Time
	}
	var reached []seen
	for {
		select {
		case <-stop:
			var lags []float64
			for v, at := range polled {
				i := sort.Search(len(reached), func(i int) bool { return reached[i].v >= v })
				if i < len(reached) {
					lags = append(lags, float64(reached[i].at.Sub(at))/float64(time.Millisecond))
				}
			}
			return lags
		case <-colCh:
			v, _ := r.up.DataVersion()
			if _, ok := polled[v]; !ok {
				polled[v] = time.Now()
			}
		case <-repCh:
			v, _ := r.rep.DataVersion()
			if n := len(reached); n == 0 || v > reached[n-1].v {
				reached = append(reached, seen{v, time.Now()})
			}
		}
	}
}

// runPhase sets w's rig up `setups` times (keeping the last), then
// measures it for d.
func runPhase(w *workload, seed int64, d time.Duration, traced bool, setups int) (*phase, error) {
	p := &phase{}
	var r *rig
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = buildRig(w, seed, traced); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	defer r.close()
	if r.dials > runtime.NumCPU() {
		return nil, fmt.Errorf("harness: %d client connections on %d CPUs", r.dials, runtime.NumCPU())
	}

	base := r.counters()
	if r.traced != nil {
		r.traced.reset()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	p.marks = []mark{takeMark(t0)}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	r.background(stop, t0, p, &bg)
	rc := &recorder{p: p, start: t0}
	r.openLoop(w.rate, seed, d, rc)
	close(stop)
	bg.Wait()

	p.elapsed = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	p.gcs = ms1.NumGC - ms0.NumGC
	p.rssMB = peakRSSMB()
	for _, m := range p.marks {
		p.rssSampledMB = max(p.rssSampledMB, m.rssMB)
	}
	for _, c := range p.done {
		p.lat = append(p.lat, c.ms)
	}
	sort.Float64s(p.lat)
	sort.Float64s(p.late)
	if len(p.late) > 0 {
		if l := percentile(p.late, 99); l > float64(lateLimit)/float64(time.Millisecond) {
			p.invalid = append(p.invalid, fmt.Sprintf("open-loop generator fell behind: dispatch late p99 %.1f ms > %v", l, lateLimit))
		}
	}
	if r.traced != nil {
		r.layerMetrics(p, base)
	}
	return p, nil
}

// openLoop dispatches arrivals at a fixed rate across the connections
// (pipelined, at most maxInflight in flight) for d, timing each op from
// when it was due.
func (r *rig) openLoop(rate float64, seed int64, d time.Duration, rc *recorder) {
	interval := time.Duration(float64(time.Second) / rate)
	pl := newPlanner(r, seed)
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		// An arrival the generator reaches late is still sent; its
		// latency counts from when it was due.
		now := time.Now()
		c := r.conns[i%len(r.conns)]
		op := pl.next()
		rc.mu.Lock()
		rc.p.late = append(rc.p.late, float64(now.Sub(due))/float64(time.Millisecond))
		rc.mu.Unlock()
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.execute(c, op, due, rc)
				<-sem
			}()
		default:
			rc.add(outDropped, 0)
		}
	}
	wg.Wait()
}

// since is the wall time since t in ms.
func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// currentRSSMB reads the resident set from /proc/self/statm (0 where
// it cannot be read).
func currentRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// counters reads the cumulative telemetry counters the per-layer
// metrics difference across the measured window.
func (r *rig) counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range r.mods {
		if tel := m.Telemetry(); tel != nil {
			out["memo.hits"] += tel.Counter("modeler.avail_memo_hits").Value()
			out["memo.misses"] += tel.Counter("modeler.avail_memo_misses").Value()
			out["topo.fetches"] += tel.Counter("modeler.topo_fetches").Value()
		}
	}
	if r.srvTel != nil {
		out["shed"] = r.srvTel.Counter("server.admission.shed").Value()
	}
	if r.view != nil {
		out["pulls"] = r.view.Telemetry().Counter("federation.pulls").Value()
	}
	if r.repTel != nil {
		out["deltas"] = r.repTel.Counter("replica.updates.delta").Value()
		out["fulls"] = r.repTel.Counter("replica.updates.full").Value()
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orZero maps NaN (no samples) to 0 for JSON.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// layerMetrics fills p.layer from the decorators, the program's own
// telemetry and the runtime, and builds the self-time table.
func (r *rig) layerMetrics(p *phase, base map[string]uint64) {
	now := r.counters()
	delta := func(k string) float64 { return float64(now[k] - base[k]) }
	q := float64(p.completed())
	epochs := float64(p.epochs)
	sorted := func(v []float64) []float64 { sort.Float64s(v); return v }
	bs := r.traced

	client := sorted(bs.client.durations())
	source := sorted(bs.source.durations())
	L := map[string]float64{}
	L["client.rpcs_per_query"] = ratio(float64(len(client)), q)
	L["client.rpc_p50_ms"] = orZero(percentile(client, 50))
	L["client.rpc_p99_ms"] = orZero(percentile(client, 99))
	L["server.source_p50_us"] = orZero(percentile(source, 50)) * 1e3
	L["wire.rpc_overhead_p50_ms"] = L["client.rpc_p50_ms"] - L["server.source_p50_us"]/1e3
	L["server.admission_wait_p99_ms"] = orZero(r.srvTel.Quantile("server.admission.wait_ms", 0).Percentile(99))
	L["server.shed"] = delta("shed")
	L["core.matrix_warm_p50_ms"] = orZero(percentile(sorted(bs.matrix.durations("warm")), 50))
	L["core.matrix_cold_p50_ms"] = orZero(percentile(sorted(bs.matrix.durations("cold")), 50))
	L["core.memo_hit_ratio"] = ratio(delta("memo.hits"), delta("memo.hits")+delta("memo.misses"))
	L["core.topo_fetches_per_epoch"] = ratio(delta("topo.fetches"), epochs)
	L["federation.topology_p99_ms"] = 0
	if r.view != nil {
		L["federation.topology_p99_ms"] = orZero(percentile(sorted(bs.source.durations("topo")), 99))
	}
	L["federation.pulls_per_epoch"] = ratio(delta("pulls"), epochs)
	L["collector.poll_round_ms"] = orZero(median(append([]float64(nil), p.rounds...)))
	snmp := bs.snmp.durations()
	var busy float64
	for _, v := range snmp {
		busy += v
	}
	L["snmp.roundtrips_per_poll"] = ratio(float64(len(snmp)), epochs)
	L["snmp.busy_ms_per_poll"] = ratio(busy, epochs)
	L["replica.delta_frac"] = ratio(delta("deltas"), delta("deltas")+delta("fulls"))
	L["replica.freshness_lag_ms"] = orZero(median(append([]float64(nil), p.lags...)))
	L["runtime.gc_cycles_per_kquery"] = ratio(1000*float64(p.gcs), q)
	L["loadgen.late_p99_ms"] = orZero(percentile(p.late, 99))
	L["check.comparisons"] = float64(p.compared)
	// Raw memo counts for the report: a ratio of 0 over 0 lookups means
	// the memo is off, not cold.
	L["memo.hits"], L["memo.misses"] = delta("memo.hits"), delta("memo.misses")
	p.layer = L
	p.spans, p.spansDropped = bs.tr.snapshot()
	p.self = selfTimeTable(p.spans)
}
