// Command perfbench is the repository's benchmark of the Remos query
// plane. One process builds a workload's serving plane — simulated
// network, SNMP agents, collectors, and a query server on loopback —
// drives it from remote clients, checks every answer, and prints the
// end-to-end metrics; with -trace 1 it prints per-layer metrics from a
// run whose layers are timed by decorators around the program's own
// seams. See README.md for the workloads and the metric map.
//
// Usage:
//
//	perfbench --workload paper-remote --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is 1
// when an answer was wrong or the run was invalid, 2 on bad arguments
// or a failed set-up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRuns is how many times an untraced run sets its rig up; the
// reported set-up time is their median.
const setupRuns = 5

// metricDef names one reported metric.
type metricDef struct{ name, unit, better string }

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics of an untraced run (BENCHMARK.json
// "end_to_end"). The report also prints latency_p99_ms, failed_frac and
// freshness_lag_ms, which are not gated: see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"qps", "1/s", higher},
	{"latency_p50_ms", "ms", lower},
	{"cpu_ms_per_query", "ms", lower},
	{"allocs_per_query", "count", lower},
	{"rss_peak_mb", "MB", lower},
}

// perLayer are the metrics of a traced run (BENCHMARK.json
// "per_layer"); the overhead.* entries are appended from endToEnd.
var perLayer = append([]metricDef{
	{"client.rpcs_per_query", "rpc/query", lower},
	{"client.rpc_p50_ms", "ms", lower},
	{"client.rpc_p99_ms", "ms", lower},
	{"server.source_p50_us", "us", lower},
	{"wire.rpc_overhead_p50_ms", "ms", lower},
	{"server.admission_wait_p99_ms", "ms", lower},
	{"server.shed", "count", lower},
	{"core.matrix_warm_p50_ms", "ms", lower},
	{"core.matrix_cold_p50_ms", "ms", lower},
	{"core.memo_hit_ratio", "ratio", higher},
	{"core.topo_fetches_per_epoch", "fetch/epoch", lower},
	{"federation.topology_p99_ms", "ms", lower},
	{"federation.pulls_per_epoch", "pull/epoch", lower},
	{"collector.poll_round_ms", "ms", lower},
	{"snmp.roundtrips_per_poll", "rt/poll", lower},
	{"snmp.busy_ms_per_poll", "ms/poll", lower},
	{"replica.delta_frac", "ratio", higher},
	{"replica.freshness_lag_ms", "ms", lower},
	{"runtime.gc_cycles_per_kquery", "gc/kquery", lower},
	{"loadgen.late_p99_ms", "ms", lower},
	{"check.comparisons", "count", higher},
}, overheadDefs()...)

// overheadDefs names the tracing overhead of each end-to-end metric:
// how much worse the traced half reads than the untraced one, as a
// ratio (traced/untraced − 1, or untraced/traced − 1 where higher is
// better).
func overheadDefs() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		out = append(out, metricDef{"overhead." + m.name, "ratio", lower})
	}
	return out
}

// overhead is how much worse traced reads than untraced for m.
func overhead(m metricDef, untraced, traced float64) float64 {
	if m.better == higher {
		return ratio(untraced, traced) - 1
	}
	return ratio(traced, untraced) - 1
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-remote, matrix-fabric or replica-churn")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-remote|matrix-fabric|replica-churn), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		fmt.Fprintf(stderr, "perfbench: harness: GOMAXPROCS %d exceeds %d CPUs\n", p, n)
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d clients=%d GOMAXPROCS=%d open loop at %g op/s\n",
		w.name, *seed, *seconds, *trace, clientCount(), runtime.GOMAXPROCS(0), w.rate)

	var res result
	var phases []*phase
	if *trace == 0 {
		p, err := runPhase(w, *seed, d, false, setupRuns)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		phases = []*phase{p}
		e := endToEndValues(p)
		report(stdout, "end-to-end", p, e)
		res.Metrics = pick(endToEnd, e)
	} else {
		// Half the time traced, between two untraced quarters: the
		// difference is the tracing overhead, with drift over the run
		// and warm-up of the process cancelled as far as they are linear;
		// the traced half gives the layers.
		var err error
		phases = make([]*phase, 3)
		for i, traced := range []bool{false, true, false} {
			part := d / 4
			if traced {
				part = d / 2
			}
			if phases[i], err = runPhase(w, *seed, part, traced, 1); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 2
			}
		}
		a1, b, a2 := phases[0], phases[1], phases[2]
		report(stdout, "untraced, first quarter", a1, endToEndValues(a1))
		report(stdout, "traced half", b, endToEndValues(b))
		report(stdout, "untraced, last quarter", a2, endToEndValues(a2))
		ea, eb := endToEndValues(a1, a2), endToEndValues(b)
		// The process's peak RSS only grows, so it cannot tell the
		// phases apart: compare the resident set sampled inside the
		// traced half with that of the quarter before any span existed.
		ea["rss_peak_mb"], eb["rss_peak_mb"] = a1.rssSampledMB, b.rssSampledMB
		for _, m := range endToEnd {
			b.layer["overhead."+m.name] = overhead(m, ea[m.name], eb[m.name])
		}
		reportLayers(stdout, b)
		if path, err := saveSpans(w.name, *seed, b.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s (%d not kept: log full)\n", len(b.spans), path, b.spansDropped)
		}
		res.Metrics = pick(perLayer, b.layer)
	}

	res.Correct = true
	code := 0
	for _, p := range phases {
		res.Attempted += p.tally.attempted()
		res.Failed += p.tally.failed()
		if p.tally[outWrong] > 0 {
			res.Correct = false
			code = 1
		}
		if len(p.invalid) > 0 {
			code = 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	return code
}

// endToEndValues computes the gated end-to-end metrics over phases:
// rates and per-op costs as medians over their windows, set-up time as
// the median of their set-ups.
func endToEndValues(ps ...*phase) map[string]float64 {
	var ws []windowStat
	var setups []float64
	var rss float64
	for _, p := range ps {
		ws = append(ws, p.windows()...)
		setups = append(setups, p.setups...)
		rss = max(rss, p.rssMB)
	}
	med := func(f func(windowStat) float64) float64 {
		v := make([]float64, len(ws))
		for i, w := range ws {
			v[i] = f(w)
		}
		return orZero(median(v))
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"qps":              med(func(w windowStat) float64 { return w.qps }),
		"latency_p50_ms":   med(func(w windowStat) float64 { return w.p50 }),
		"cpu_ms_per_query": med(func(w windowStat) float64 { return w.cpuMS }),
		"allocs_per_query": med(func(w windowStat) float64 { return w.allocs }),
		"rss_peak_mb":      rss,
	}
}

func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// report prints a phase's end-to-end metrics with their units, sample
// counts and the checks.
func report(w io.Writer, title string, p *phase, e map[string]float64) {
	n := len(p.lat)
	fmt.Fprintf(w, "== %s: %d ops completed in %.2f s, %d poll periods, %d windows of %v\n",
		title, n, p.elapsed, p.epochs, len(p.windows()), windowLen)
	for _, m := range endToEnd {
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups %.4f", len(p.setups), p.setups)
		case "rss_peak_mb":
			note = fmt.Sprintf("process peak so far; sampled in this phase %.1f", p.rssSampledMB)
		case "qps", "cpu_ms_per_query", "allocs_per_query":
			note = "median over windows"
		case "latency_p50_ms":
			note = fmt.Sprintf("median over windows; whole run %.4f, n=%d", percentile(p.lat, 50), n)
		}
		fmt.Fprintf(w, "  %-22s %14.4f %-6s %s\n", m.name, e[m.name], m.unit, note)
	}
	note := fmt.Sprintf("whole run, n=%d, %d beyond", n, beyond(n, 99))
	if !supported(n, 99) {
		note += fmt.Sprintf(" (fewer than %d: p99 not supported)", minBeyond)
	}
	fmt.Fprintf(w, "  %-22s %14.4f %-6s %s\n", "latency_p99_ms", orZero(percentile(p.lat, 99)), "ms", note)
	fmt.Fprintf(w, "  %-22s %14.4f %-6s failed/attempted = %d/%d", "failed_frac", p.tally.failedFrac(), "ratio",
		p.tally.failed(), p.tally.attempted())
	for o := outError; o < numOutcomes; o++ {
		if p.tally[o] > 0 {
			fmt.Fprintf(w, " %s=%d", outcomeNames[o], p.tally[o])
		}
	}
	fmt.Fprintln(w)
	if len(p.lags) > 0 {
		fmt.Fprintf(w, "  %-22s %14.4f %-6s n=%d poll rounds\n", "freshness_lag_ms",
			median(append([]float64(nil), p.lags...)), "ms", len(p.lags))
	}
	fmt.Fprintf(w, "  checks: every answer checked; %d compared byte-for-byte with an in-process Modeler at the same epoch (%d skipped: a poll ran in between)\n",
		p.compared, p.skipped)
	for _, msg := range p.wrong {
		fmt.Fprintf(w, "  WRONG: %s\n", msg)
	}
	for _, msg := range p.invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", msg)
	}
}

// reportLayers prints the traced phase's per-layer metrics and its
// self-time table.
func reportLayers(w io.Writer, p *phase) {
	fmt.Fprintf(w, "== per-layer (traced half)\n")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.name, p.layer[m.name], m.unit)
	}
	fmt.Fprintf(w, "  memo lookups: %.0f hits, %.0f misses", p.layer["memo.hits"], p.layer["memo.misses"])
	if p.layer["memo.hits"]+p.layer["memo.misses"] == 0 {
		fmt.Fprintf(w, " (no Modeler consulted a memo: remote sources expose no data version)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "== self time by layer (span duration minus time covered by its children)\n")
	printSelfTimes(w, p.self, p.completed())
}

// saveSpans writes the traced spans next to the benchmark binary.
func saveSpans(workload string, seed int64, spans []span) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(filepath.Dir(exe), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	return path, writeSpans(path, spans)
}
