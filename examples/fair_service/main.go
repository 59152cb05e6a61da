// Fairness drill: one tenant's saturating 10,000-variant sweep must
// not starve another tenant's interactive traffic. Against a 2-shard
// supervised cluster of real simd workers (weighted-fair scheduling
// on, the default), the drill proves the internal/sched contract
// end to end:
//
//  1. tenant "alice" measures her idle-cluster baseline: a run of
//     unique interactive /run probes through the router, p99 noted;
//
//  2. tenant "sweeper" starts a 10k-variant RTL sweep (batch class —
//     the /sweep default) and the drill waits until the cluster
//     healthz shows a deep batch backlog: the sweep is saturating
//     every worker's batch queue;
//
//  3. while the sweep streams, alice's worker healthz must stay
//     honest per class: the batch queue advertises a real
//     Retry-After, the interactive class does NOT inherit it (the
//     per-class bugfix), and the sched block names the sweeper's
//     tenant queue exactly as the metric labels do;
//
//  4. alice sends paced interactive probes DURING the sweep: every
//     one must answer 200 (no admission rejection — her class queue
//     is not the sweep's), and the p99 of the probes that overlapped
//     the sweep must stay within 5x her idle baseline — bounded
//     latency under a saturating background sweep, the starvation-
//     resistance acceptance gate;
//
//  5. the sweep itself completes with done=true and ZERO error rows
//     — fairness throttles the batch class, it never breaks it — and
//     the sched metric families (simd_sched_queue_depth{tenant,class},
//     simd_sched_wait_seconds{class}) are present on the scrape.
//
//     go run ./examples/fair_service [-simd PATH] [-variants N]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the fairness smoke under -race; it exits nonzero on
// any violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/drill"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
)

const (
	shardCount   = 2
	shardWorkers = 3
	// idleProbes sizes the baseline sample; loaded probing continues
	// until the sweep ends (or maxLoadedProbes), requiring at least
	// minOverlap samples taken while the sweep was in flight.
	idleProbes      = 40
	maxLoadedProbes = 200
	minOverlap      = 30
	probePace       = 20 * time.Millisecond
	// idleFloor guards the baseline against timer noise: on a fast
	// machine the idle p99 is a few ms, and 5x a noise-sized number
	// is not a meaningful bound. The scheduler is also non-preemptive
	// — an interactive arrival must wait for an in-flight batch
	// variant to retire, so the bound has to absorb at least one
	// batch service time (tens of ms under -race). Genuine FIFO
	// starvation under a 10k backlog is SECONDS, so flooring the
	// baseline at 100ms keeps the 5x gate honest while not failing
	// on job-granularity waits.
	idleFloor = 100 * time.Millisecond
)

// d is the running drill.
var d *drill.Drill

// fairBase is deliberately tiny — two short generators on the
// 2-master platform — so ten thousand RTL simulations stay a smoke
// test. The count axis below starts at 10 to keep each variant
// expensive enough that the sweep outlives the probing phase.
func fairBase() spec.Spec {
	return spec.Spec{
		SpecVersion: spec.Version,
		Name:        "fair/base",
		Params:      config.Default(2),
		Masters: []spec.GenSpec{
			{Kind: spec.KindSequential, Base: 0, Beats: 2, Count: 4, Gap: 1},
			{Kind: spec.KindStream, Base: 0x80000, Beats: 2, Period: 8, Count: 2},
		},
	}
}

// sweepRequest is the saturating grid: 25 x 20 x 20 = 10,000 distinct
// workloads by default, truncated along the first axis when -variants
// asks for a smaller drill.
func sweepRequest(variants int) service.SweepRequest {
	base := fairBase()
	u := variants / 400 // 20 x 20 inner product
	if u < 1 {
		u = 1
	}
	ints := func(n, from int) []any {
		vals := make([]any, n)
		for i := 0; i < n; i++ {
			vals[i] = from + i
		}
		return vals
	}
	return service.SweepRequest{
		Base: &base, Name: "fair/grid", Model: "rtl",
		Axes: []service.SweepAxis{
			{Param: "urgency_threshold", Values: ints(u, 0)},
			{Param: "count", Values: ints(20, 10)},
			{Param: "write_buffer_depth", Values: ints(20, 0)},
		},
	}
}

// probeSpec is alice's i-th interactive request: a unique stream base
// address per probe, so every probe is a genuine cache-miss
// simulation (a cached answer would measure the LRU, not the
// scheduler) in a key space disjoint from the sweep's.
func probeSpec(i int) spec.Spec {
	sp := fairBase()
	sp.Name = fmt.Sprintf("fair/probe-%d", i)
	sp.Masters[1].Base = 0x100000 + uint32(i)*0x1000
	return sp
}

// probe posts one interactive /run as the given tenant and returns
// the request latency.
func probe(front string, i int, tenant string) time.Duration {
	req := d.Request(http.MethodPost, front+"/run", service.RunRequest{Spec: ptr(probeSpec(i)), Model: "rtl"})
	req.Header.Set(service.DefaultTenantHeader, tenant)
	start := time.Now()
	status, _, respBody := d.Do(req)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		d.Failf("probe %d status %d (interactive traffic must never be rejected for the sweep's backlog): %s",
			i, status, respBody)
	}
	return elapsed
}

func ptr[T any](v T) *T { return &v }

// p99 returns the 99th-percentile of the samples (the max for small
// sample sizes — conservative, never flattering).
func p99(durs []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*len(sorted) + 99) / 100 // ceil(0.99n)
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// clusterBatchQueued reads the aggregated healthz and returns the
// batch class's cluster-wide queue depth (and whether the sched
// block was present at all).
func clusterBatchQueued(front string) (int, bool) {
	ch, err := drill.Health(front)
	if err != nil {
		return 0, false
	}
	for _, cs := range ch.Sched {
		if cs.Class == sched.Batch.String() {
			return cs.Queued, true
		}
	}
	return 0, false
}

func main() {
	variants := flag.Int("variants", 10_000, "sweep grid size (rounded to the axes product)")
	d = drill.New("fair_service")
	defer d.Close()

	// The cluster: 2 shards x 3 workers, weighted-fair scheduling on
	// (the default), small enough that a 10k-variant sweep saturates.
	sup, front := d.Cluster(shardCount, func(i int) []string {
		return []string{
			"-workers", fmt.Sprint(shardWorkers),
			"-store", filepath.Join(d.Tmp, fmt.Sprintf("shard-%d", i)),
		}
	}, shard.SpawnOptions{}, shard.Options{})

	// 1. Alice's idle baseline.
	idle := make([]time.Duration, 0, idleProbes)
	for i := 0; i < idleProbes; i++ {
		idle = append(idle, probe(front, i, "alice"))
	}
	idleP99 := p99(idle)
	bound := 5 * max(idleP99, idleFloor)
	fmt.Printf("idle baseline: %d interactive probes, p99 %v (latency bound %v)\n",
		idleProbes, idleP99.Round(time.Millisecond), bound.Round(time.Millisecond))

	// 2. The sweeper's saturating sweep, drained in the background.
	total := (max(*variants/400, 1)) * 400
	type sweepResult struct {
		rows    int
		summary service.SweepSummary
	}
	sweepCh := make(chan sweepResult, 1)
	sweepStart := time.Now()
	go func() {
		req := d.Request(http.MethodPost, front+"/sweep", sweepRequest(*variants))
		req.Header.Set(service.DefaultTenantHeader, "sweeper")
		rows, summary, _ := d.Stream(req, func(row shard.Row) bool {
			if row.Error != "" {
				d.Failf("sweep error row %d (fairness must throttle the batch class, never break it): %s",
					row.Index, row.Error)
			}
			return true
		})
		sweepCh <- sweepResult{rows: len(rows), summary: summary}
	}()

	// Wait for genuine saturation: the cluster-wide batch queue is
	// backlogged.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if queued, ok := clusterBatchQueued(front); ok && queued > 0 {
			fmt.Printf("sweep saturating: cluster batch queue depth %d\n", queued)
			break
		}
		if time.Now().After(deadline) {
			d.Failf("cluster healthz never showed a batch backlog — sched block missing or sweep not saturating")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 3. Per-class honesty on a worker healthz mid-sweep: batch
	// advertises a real backoff, interactive does not inherit it, and
	// the sweeper's tenant queue is named exactly as the metric
	// labels key it.
	checkedWorker := false
	for attempt := 0; attempt < 100 && !checkedWorker; attempt++ {
		for _, url := range sup.URLs() {
			_, _, body := d.Get(url + "/healthz")
			var h service.Health
			if json.Unmarshal(body, &h) != nil || h.Sched == nil {
				d.Failf("worker %s healthz lacks the sched block: %s", url, body)
			}
			var batch, interactive *sched.ClassStatus
			for i := range h.Sched.Classes {
				switch h.Sched.Classes[i].Class {
				case sched.Batch.String():
					batch = &h.Sched.Classes[i]
				case sched.Interactive.String():
					interactive = &h.Sched.Classes[i]
				}
			}
			if batch == nil || interactive == nil {
				d.Failf("worker %s sched block misses a class: %s", url, body)
			}
			if batch.Queued == 0 {
				continue // this worker drained just now; try the other
			}
			if batch.RetryAfter < 1 {
				d.Failf("worker %s: batch queued %d yet retry_after %d", url, batch.Queued, batch.RetryAfter)
			}
			if interactive.RetryAfter > 2 {
				d.Failf("worker %s: interactive retry_after %d inherited the sweep's backlog (batch %d) — per-class Retry-After broken",
					url, interactive.RetryAfter, batch.RetryAfter)
			}
			sweeperNamed := false
			for _, t := range h.Sched.Tenants {
				if t.Tenant == "sweeper" && t.Class == sched.Batch.String() && t.Queued > 0 {
					sweeperNamed = true
				}
			}
			if !sweeperNamed {
				d.Failf("worker %s: batch queued %d but no sweeper tenant row in %s", url, batch.Queued, body)
			}
			checkedWorker = true
			break
		}
		if !checkedWorker {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !checkedWorker {
		d.Failf("no worker ever showed a backlogged batch class with a sweeper tenant row")
	}
	fmt.Println("worker healthz honest per class: batch backs off, interactive does not, sweeper's queue named")

	// 4. Alice probes during the sweep. Only probes that overlapped
	// the stream count toward the loaded p99 — that is the population
	// the acceptance gate is about.
	loaded := make([]time.Duration, 0, maxLoadedProbes)
	var result *sweepResult
	for i := 0; i < maxLoadedProbes && result == nil; i++ {
		lat := probe(front, idleProbes+i, "alice")
		select {
		case r := <-sweepCh:
			// The sweep ended mid-probe; this sample may be partly
			// unloaded, so it is dropped.
			result = &r
		default:
			loaded = append(loaded, lat)
		}
		time.Sleep(probePace)
	}
	if len(loaded) < minOverlap {
		d.Failf("only %d probes overlapped the sweep (want >= %d) — raise -variants so the sweep outlives the probe phase",
			len(loaded), minOverlap)
	}
	loadedP99 := p99(loaded)
	fmt.Printf("loaded: %d interactive probes during the sweep, p99 %v, all 200\n",
		len(loaded), loadedP99.Round(time.Millisecond))
	if loadedP99 > bound {
		d.Failf("interactive p99 %v under the sweep exceeds %v (5x idle p99 %v) — starvation resistance broken",
			loadedP99, bound, idleP99)
	}

	// 5. The sweep finishes intact.
	if result == nil {
		deadline := time.Now().Add(15 * time.Minute)
		for result == nil {
			select {
			case r := <-sweepCh:
				result = &r
			case <-time.After(time.Second):
				if time.Now().After(deadline) {
					d.Failf("sweep did not finish within 15m")
				}
			}
		}
	}
	if result.summary.Errors != 0 || result.rows != total || result.summary.Rows != total {
		d.Failf("sweep finished dishonestly: rows=%d summary=%+v want %d rows, zero errors",
			result.rows, result.summary, total)
	}
	fmt.Printf("sweep complete: %d rows, zero errors, %v total\n",
		result.rows, time.Since(sweepStart).Round(time.Millisecond))

	// The sched metric families are on the worker scrape, keyed like
	// the healthz blocks the drill just read.
	fams := d.Metrics(sup.URLs()[0])
	for _, want := range [][]string{
		{"simd_sched_queue_depth", "tenant", "sweeper", "class", "batch"},
		{"simd_sched_wait_seconds_count"}, {"simd_sched_rejections_total"}, {"simd_sched_dispatched_total"},
	} {
		if len(obs.Find(fams, want[0], want[1:]...)) == 0 {
			d.Failf("worker metrics missing %v", want)
		}
	}
	// And the aggregated router scrape re-exposes them per shard.
	if len(obs.Find(d.Metrics(front), "simd_sched_queue_depth")) == 0 {
		d.Failf("aggregated router metrics missing simd_sched_queue_depth")
	}

	fmt.Printf("fairness smoke OK: interactive p99 %v under a saturating %d-variant sweep (bound %v), zero rejections, zero error rows\n",
		loadedP99.Round(time.Millisecond), total, bound.Round(time.Millisecond))
}
