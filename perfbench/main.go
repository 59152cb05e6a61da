// Command perfbench is the repository's benchmark of record. It builds
// the simulation kernel, the worker (service), the router (shard), the
// disk store and the scheduler in process from their public
// constructors, drives them as a client would, checks every output, and
// prints every metric by name with its unit and sample count. The last
// line of standard output is one JSON object with the run's verdict and
// metrics.
//
//	perfbench --workload paper-speed|sweep-cold|sweep-warm|cluster-run \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// repeats the workload with spans around its own calls, replays the
// workload's inputs through each layer, and reports the per-layer
// metrics and the tracing overhead. See README.md for what each metric
// means and which layer should move it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix over the tiers.
type workload interface {
	// setup builds the tiers and fills whatever the workload needs
	// filled; it is timed, and repeated several times per run.
	setup() error
	// measure drives the workload for d, recording spans when tr is
	// non-nil.
	measure(d time.Duration, tr *tracer) (measurement, error)
	// replay sends the workload's inputs through each layer's public
	// functions and returns the per-layer metrics.
	replay(tr *tracer, m *measurement) (map[string]float64, error)
	close()
}

// measurement is one measured phase's outcome.
type measurement struct {
	Throughput float64 // units of work per second at the fast end, normalized (calib.go)
	Fast       float64 // microseconds per operation at the fast end, normalized
	Lat        summary // microseconds per operation, raw
	Attempted  int
	Failed     int
	Problems   []string // output checks that failed (each also in Failed)
	Notes      []note   // workload-specific figures, printed, not gated
	Layer      map[string]float64
}

// note is one printed figure.
type note struct {
	Name  string
	Value float64
	Unit  string
	Extra string
}

func (m *measurement) fail(format string, args ...any) {
	m.Failed++
	if len(m.Problems) < 20 {
		m.Problems = append(m.Problems, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) note(name string, v float64, unit, extra string) {
	m.Notes = append(m.Notes, note{name, v, unit, extra})
}

// endToEnd and perLayer are the metric names of BENCHMARK.json; every
// run reports all of one set.
var endToEnd = []string{"setup_s", "peak_rss_mb", "throughput_per_s", "latency_fast_us"}

var perLayer = []string{
	"core.tlm_ns_per_cycle", "core.rtl_ns_per_cycle", "core.allocs_per_run", "core.run_us", "core.cycles",
	"spec.decode_us", "spec.validate_us", "spec.validate_allocs", "spec.hash_us",
	"sweep.walk_us_per_variant",
	"store.put_us", "store.get_us", "store.disk_hit_frac", "store.open_ms",
	"sched.roundtrip_us", "sched.rejections",
	"service.hit_us", "service.queue_us", "service.simulate_us", "service.encode_us", "service.jobs",
	"shard.router_hit_us", "shard.router_hit_frac", "shard.backend_hit_us", "shard.hop_us",
	"shard.stolen_rows", "shard.failover_rows",
	"bench.gen_late_p99_us", "bench.trace_overhead_pct",
}

var units = map[string]string{
	"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s", "latency_fast_us": "us",
	"core.tlm_ns_per_cycle": "ns", "core.rtl_ns_per_cycle": "ns", "core.allocs_per_run": "count",
	"core.run_us": "us", "core.cycles": "count",
	"spec.decode_us": "us", "spec.validate_us": "us", "spec.validate_allocs": "count", "spec.hash_us": "us",
	"sweep.walk_us_per_variant": "us",
	"store.put_us":              "us", "store.get_us": "us", "store.disk_hit_frac": "frac", "store.open_ms": "ms",
	"sched.roundtrip_us": "us", "sched.rejections": "count",
	"service.hit_us": "us", "service.queue_us": "us", "service.simulate_us": "us", "service.encode_us": "us",
	"service.jobs":        "count",
	"shard.router_hit_us": "us", "shard.router_hit_frac": "frac", "shard.backend_hit_us": "us", "shard.hop_us": "us",
	"shard.stolen_rows": "count", "shard.failover_rows": "count",
	"bench.gen_late_p99_us": "us", "bench.trace_overhead_pct": "%",
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "paper-speed, sweep-cold, sweep-warm or cluster-run")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloads are the benchmark's workloads by name, with how many times
// a run repeats each one's set-up (cluster-run's prefill of thousands
// of fresh keys costs seconds, sweep-warm's prefill one; the others'
// cost a tenth of one, so they repeat more for a steadier median), and
// how long it runs untimed before measuring. A fresh cold cluster runs
// its first seconds a third slower while its heaps grow; the others
// reach their pace within set-up.
var workloads = map[string]struct {
	rounds int
	warmup time.Duration
	make   func(seed int64, dir string, d time.Duration) workload
}{
	"paper-speed": {15, 0, func(seed int64, dir string, _ time.Duration) workload { return newPaperSpeed(seed, dir) }},
	"sweep-cold":  {15, 2 * time.Second, func(seed int64, dir string, _ time.Duration) workload { return newSweepCold(seed, dir) }},
	"sweep-warm":  {5, 0, func(seed int64, dir string, _ time.Duration) workload { return newSweepWarm(seed, dir) }},
	"cluster-run": {3, 0, func(seed int64, dir string, d time.Duration) workload { return newClusterRun(seed, dir, d) }},
}

func run(name string, seed int64, d time.Duration, traced bool) error {
	if d <= 0 {
		return errors.New("--seconds must be positive")
	}
	// Scratch state (stores, copies, span dumps) lives in the working
	// directory's .bench_out, never outside the checkout.
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_out", name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	// The servers' request log goes to a file, as a daemon's would, so
	// standard error stays readable.
	logf, err := os.Create(filepath.Join(".bench_out", name+".log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	log.SetOutput(logf)

	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Printf("workload %s  seed %d  seconds %v  trace %v\n", name, seed, d.Seconds(), traced)
	// Set-up is repeated and its median reported, so one slow round (a
	// collection, a neighbour's burst) does not read as a regression.
	var w workload
	var setups []float64
	prev := ""
	for i := 0; i < wl.rounds; i++ {
		if w != nil {
			w.close()
			os.RemoveAll(prev)
		}
		prev = filepath.Join(scratch, fmt.Sprintf("setup%d", i))
		w = wl.make(seed, prev, d)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	// Every run measures from the same state: earlier writes (a previous
	// run's stores, this run's discarded set-ups) on disk rather than
	// pending in the journal, and set-up garbage collected.
	syscall.Sync()
	runtime.GC()
	var warm measurement
	if wl.warmup > 0 {
		if warm, err = w.measure(wl.warmup, nil); err != nil {
			return err
		}
	}

	if !traced {
		m, err := w.measure(d, nil)
		if err != nil {
			return err
		}
		m.Attempted, m.Failed, m.Problems = m.Attempted+warm.Attempted, m.Failed+warm.Failed, append(m.Problems, warm.Problems...)
		vals := map[string]float64{
			"setup_s":          median(setups),
			"peak_rss_mb":      peakRSSMB(),
			"throughput_per_s": m.Throughput,
			"latency_fast_us":  m.Fast,
		}
		fmt.Printf("setup_s rounds %v\n", setups)
		fmt.Printf("latency raw %s us\n", m.Lat)
		return report(m, endToEnd, vals)
	}

	// Traced run: four quarters, untraced, traced, traced, untraced,
	// so a drift through the run weighs on both sides alike and the
	// difference is the tracing overhead; then the per-layer replay.
	tr := newTracer()
	var m measurement // the last traced quarter; its layer figures are reported
	var plainLat, tracedLat, plainRate, tracedRate float64
	attempted, failed, problems := warm.Attempted, warm.Failed, warm.Problems
	for i, t := range []*tracer{nil, tr, tr, nil} {
		q, err := w.measure(d/4, t)
		if err != nil {
			return err
		}
		fmt.Printf("quarter %d traced %-5v throughput %.6g /s, latency fast %.4g us, raw %s us\n", i, t != nil, q.Throughput, q.Fast, q.Lat)
		attempted, failed, problems = attempted+q.Attempted, failed+q.Failed, append(problems, q.Problems...)
		if t == nil {
			plainLat, plainRate = plainLat+q.Fast/2, plainRate+q.Throughput/2
		} else {
			tracedLat, tracedRate, m = tracedLat+q.Fast/2, tracedRate+q.Throughput/2, q
		}
	}
	m.Attempted, m.Failed, m.Problems = attempted, failed, problems
	layers, err := w.replay(tr, &m)
	if err != nil {
		return err
	}
	m.note("router_hit_over_worker_hit", layers["shard.router_hit_us"]/layers["service.hit_us"], "x", "ungated ratio")
	overhead := 100 * (tracedLat - plainLat) / plainLat
	layers["bench.trace_overhead_pct"] = overhead
	fmt.Printf("tracing overhead: fast-end latency %.4g us traced vs %.4g us untraced (%+.2f%%); throughput %.6g vs %.6g /s (%+.2f%%)\n",
		tracedLat, plainLat, overhead, tracedRate, plainRate, 100*(tracedRate-plainRate)/plainRate)
	dump := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := tr.write(dump); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.snapshot()), dump)
	return report(m, perLayer, layers)
}

// report prints every figure, then the verdict line.
func report(m measurement, names []string, vals map[string]float64) error {
	for _, n := range m.Notes {
		fmt.Printf("  %-28s %14.6g %-6s %s\n", n.Name, n.Value, n.Unit, n.Extra)
	}
	out := verdict{Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]metricOut{}}
	var missing []string
	for _, n := range names {
		v, ok := vals[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, n)
			continue
		}
		out.Metrics[n] = metricOut{Value: v, Unit: units[n]}
		fmt.Printf("%-30s %14.6g %s\n", n, v, units[n])
	}
	sort.Strings(m.Problems)
	for _, p := range m.Problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	if out.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	out.Correct = m.Failed == 0 && len(m.Problems) == 0
	fmt.Printf("attempted %d failed %d (failed_frac %.6f) correct %v\n",
		out.Attempted, out.Failed, float64(out.Failed)/float64(out.Attempted), out.Correct)
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// peakRSSMB is the process's peak resident set, set-up included.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
