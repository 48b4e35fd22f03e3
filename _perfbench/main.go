// Command perfbench is the repository benchmark. It drives the
// simulator's layers in-process through their public functions, as one
// caller in a closed loop, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name and unit. Every run's
// output is checked, and the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash _perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// Workloads are paper, cohort, sharded and platform; README.md in this
// directory says what each measures and which metric each layer moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// procStart approximates process start: setup_s runs from here to the
// end of the one set-up, so cold-start costs (runtime initialisation,
// first calls into each layer) are part of it.
var procStart = time.Now()

type metricDef struct{ name, unit string }

// endToEnd lists the metrics printed with --trace 0. The tails
// (run_p90_ms, op_p99_us, read_p99_us) go on the samples line instead:
// on a shared 2-core host their run-to-run spread is two to three times
// that of the medians, too wide to bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"students_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"run_p50_ms", "ms"},
	{"op_p50_us", "us"},
	{"read_p50_us", "us"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics printed with --trace 1. A workload that
// does not run a layer reports 0 for it.
var perLayer = []metricDef{
	// Course path (paper, cohort).
	{"studentsim.labs_ms", "ms"},
	{"studentsim.projects_ms", "ms"},
	{"cost.price_ms", "ms"},
	{"report.render_ms", "ms"},
	{"core.capacity_ms", "ms"},
	{"simclock.events", "count"},
	{"simclock.ns_per_event", "ns"},
	{"cloud.meter_records", "count"},
	{"lease.reservations", "count"},
	{"lease.find_slot_us", "us"},
	// Sharded core.
	{"shardsim.run_ms", "ms"},
	{"report.sharded_render_ms", "ms"},
	{"shardsim.ns_per_event", "ns"},
	{"shardsim.events", "count"},
	// Platform stack.
	{"cloud.launch_us", "us"},
	{"cloud.delete_us", "us"},
	{"cloud.accept_ratio", "ratio"},
	{"lease.book_us", "us"},
	{"lease.accept_ratio", "ratio"},
	{"simclock.advance_us", "us"},
	{"tsdb.scrape_us", "us"},
	{"alert.step_us", "us"},
	{"tsdb.query_us", "us"},
	{"report.dashboard_us", "us"},
	{"tsdb.samples", "count"},
	{"tsdb.series", "count"},
	{"alert.transitions", "count"},
	{"flightrec.incidents", "count"},
	{"logging.records", "count"},
	{"logging.dropped", "count"},
	{"trace.spans", "count"},
	{"chaos.faults", "count"},
	// Go runtime, all workloads, over the untraced runs.
	{"runtime.alloc_kb_per_student", "KB"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	// Traced vs untraced throughput.
	{"bench.trace_overhead_frac", "ratio"},
}

// unit is the outcome of one run: one course simulation, one sharded
// projection, or one platform scenario.
type unit struct {
	students  int                // students simulated (platform: tenant students)
	ops       []float64          // µs per simulating or tenant call
	reads     []float64          // µs per report, capacity or operator read
	attempted int                // calls made plus checks evaluated
	failed    int                // unexpected errors plus failed checks
	problems  []string           // what failed, for standard error
	digest    string             // hash of every output the run produced
	counts    map[string]float64 // layer statistics, traced runs only
	wall      time.Duration      // the run's calls, without checks or probes
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 }

func (u *unit) check(ok bool, format string, args ...any) {
	u.attempted++
	if !ok {
		u.failed++
		u.problems = append(u.problems, fmt.Sprintf(format, args...))
	}
}

// call records one call's outcome: err == nil or an expected refusal is
// success; anything else is a failure.
func (u *unit) call(err error, expected bool, what string) {
	u.attempted++
	if err != nil && !expected {
		u.failed++
		u.problems = append(u.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// workload is one benchmark scenario. run(i, nil) is the timed path;
// run(i, rec) is the traced path and must produce the same digest.
type workload interface {
	setup() error
	run(i int, rec *recorder) unit
	// finish runs the checks that sit outside the timed region.
	finish() unit
	// layers derives the workload's per-layer metrics from the traced
	// units and their spans.
	layers(traced []unit, spans []span, self []int64) map[string]float64
}

var workloads = map[string]func(seed uint64) workload{
	"paper":    func(seed uint64) workload { return newCourse(seed, paperStudents, true) },
	"cohort":   func(seed uint64) workload { return newCourse(seed, cohortStudents, false) },
	"sharded":  newSharded,
	"platform": newPlatform,
}

type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) add(u unit) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.problems = append(t.problems, u.problems...)
}

func main() {
	name := flag.String("workload", "", "paper, cohort, sharded or platform")
	seed := flag.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper|cohort|sharded|platform --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	w := mk(*seed)

	if err := w.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		os.Exit(1)
	}
	setup := time.Since(procStart).Seconds()

	var res tally
	var metrics map[string]float64
	budget := time.Duration(*seconds) * time.Second
	if *traced == 0 {
		timed := loop(w, budget)
		rss := maxRSSMB()
		// Replay the first run traced: its digest must match.
		rec := newRecorder()
		check := w.run(0, rec)
		compareDigests(&res, timed[:1], []unit{check})
		for _, u := range timed {
			res.add(u)
		}
		res.add(check)
		res.add(w.finish())
		metrics = endToEndMetrics(timed, setup, rss)
		printRuns(timed)
	} else {
		// Untraced and traced runs of the same seed alternate, so the
		// overhead compares runs made under the same machine load.
		var plain, tr []unit
		var rt runtimeStats
		rec := newRecorder()
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < budget; i++ {
			before := readRuntime()
			plain = append(plain, w.run(i, nil))
			rt = rt.add(readRuntime().sub(before))
			tr = append(tr, w.run(i, rec))
		}
		compareDigests(&res, plain, tr)
		for _, u := range plain {
			res.add(u)
		}
		for _, u := range tr {
			res.add(u)
		}
		res.add(w.finish())
		self := selfTimes(rec.spans)
		metrics = w.layers(tr, rec.spans, self)
		addRuntime(metrics, rt, plain)
		metrics["bench.trace_overhead_frac"] = traceOverhead(plain, tr)
		if path, err := rec.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.tsv", *name, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
		}
	}
	for i, p := range res.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... %d more\n", len(res.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	line, err := resultLine(res, defs, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// loop makes consecutive untraced runs from run 0 until budget has
// passed, at least one.
func loop(w workload, budget time.Duration) []unit {
	var out []unit
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		out = append(out, w.run(i, nil))
	}
	return out
}

// compareDigests checks that run i produced the same outputs timed and
// traced, for every run both loops reached.
func compareDigests(res *tally, timed, traced []unit) {
	for i := 0; i < len(timed) && i < len(traced); i++ {
		res.attempted++
		if timed[i].digest != traced[i].digest {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("run %d: traced digest %s != timed %s", i, traced[i].digest, timed[i].digest))
		}
	}
}

// endToEndMetrics derives the end-to-end metrics from the timed runs.
// Throughput divides by the runs' own wall time, which covers every call
// and tick of a run but not the benchmark's checks after it.
func endToEndMetrics(units []unit, setup, rss float64) map[string]float64 {
	var runs, ops, reads []float64
	students := 0
	var wall time.Duration
	for _, u := range units {
		runs = append(runs, float64(u.wall)/1e6)
		ops = append(ops, u.ops...)
		reads = append(reads, u.reads...)
		students += u.students
		wall += u.wall
	}
	secs := wall.Seconds()
	return map[string]float64{
		"setup_s":        setup,
		"students_per_s": float64(students) / secs,
		"ops_per_s":      float64(len(ops)+len(reads)) / secs,
		"run_p50_ms":     percentile(runs, 50),
		"op_p50_us":      percentile(ops, 50),
		"read_p50_us":    percentile(reads, 50),
		"max_rss_mb":     rss,
	}
}

// printRuns states the sample counts behind the percentiles and prints
// the tail latencies, each at the percentile its samples support.
func printRuns(units []unit) {
	var runs, ops, reads []float64
	for _, u := range units {
		runs = append(runs, float64(u.wall)/1e6)
		ops = append(ops, u.ops...)
		reads = append(reads, u.reads...)
	}
	fmt.Printf("samples: runs=%d ops=%d reads=%d\n", len(runs), len(ops), len(reads))
	fmt.Printf("tails: run_p90_ms=%.4f (p%.1f) op_p99_us=%.3f (p%.1f) read_p99_us=%.3f (p%.1f)\n",
		tail(runs, 90), tailRank(len(runs), 90), tail(ops, 99), tailRank(len(ops), 99),
		tail(reads, 99), tailRank(len(reads), 99))
}

// traceOverhead is 1 - traced/untraced throughput, in calls per second
// of run wall time. Every run of a course or sharded workload makes the
// same number of calls, so this is also the students_per_s overhead.
func traceOverhead(plain, traced []unit) float64 {
	rate := func(us []unit) float64 {
		var n int
		var d time.Duration
		for _, u := range us {
			n += len(u.ops) + len(u.reads)
			d += u.wall
		}
		return float64(n) / d.Seconds()
	}
	return 1 - rate(traced)/rate(plain)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultLine renders the final JSON line with exactly the metrics in
// defs; a metric the workload did not produce is 0.
func resultLine(res tally, defs []metricDef, values map[string]float64) (string, error) {
	out := resultOut{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range values {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("metrics not in the metric list: %s", strings.Join(extra, ", "))
	}
	b, err := json.Marshal(out)
	return string(b), err
}
