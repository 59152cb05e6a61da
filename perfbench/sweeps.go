package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// streamSweep posts a /sweep and hands every data row to onRow as it
// streams in. done=false means the stream ended without its terminal
// summary: truncated.
func streamSweep(ctx context.Context, hc *http.Client, url string, req service.SweepRequest, onRow func(shard.Row)) (service.SweepSummary, bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.SweepSummary{}, false, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/sweep", bytes.NewReader(body))
	if err != nil {
		return service.SweepSummary{}, false, err
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return service.SweepSummary{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.SweepSummary{}, false, fmt.Errorf("sweep: status %d", resp.StatusCode)
	}
	return service.DecodeSweepStream(resp.Body, func(line []byte) error {
		var row shard.Row
		if err := json.Unmarshal(line, &row); err != nil {
			return err
		}
		onRow(row)
		return nil
	})
}

// expand is the request's deduplicated variant list, computed in
// process the way both tiers compute it from the wire: numbers arrive
// as float64 there, and axis slugs (part of every variant's name and
// hash) are formatted from them.
func expand(req service.SweepRequest) ([]sweep.Variant, error) {
	wire, err := wireForm(req)
	if err != nil {
		return nil, err
	}
	_, lib := service.ScenarioLibrary()
	return service.ExpandSweepRequest(wire, lib, 0)
}

// wireForm is req as a server decodes it.
func wireForm(req service.SweepRequest) (service.SweepRequest, error) {
	var wire service.SweepRequest
	buf, err := json.Marshal(req)
	if err == nil {
		err = json.Unmarshal(buf, &wire)
	}
	return wire, err
}

func variantSpecs(vs []sweep.Variant, n int) []spec.Spec {
	var out []spec.Spec
	for _, v := range vs[:min(n, len(vs))] {
		out = append(out, v.Spec)
	}
	return out
}

// replayKeys is how many of a workload's inputs the per-layer replay
// sends through every layer.
const replayKeys = 48

// sweepCold is the write path: closed-loop sweeps through a fresh
// 2-shard cluster, every variant new, so every row simulates and is
// stored.
type sweepCold struct {
	seed     int64
	dir      string
	gen      coldGen
	cl       *cluster
	hc       *http.Client
	next     int // next request index: no request repeats within a run
	variants int // distinct variants per request
	last     service.SweepRequest
}

func newSweepCold(seed int64, dir string) *sweepCold {
	return &sweepCold{seed: seed, dir: dir, gen: newColdGen(seed), hc: newHTTPClient()}
}

func (c *sweepCold) setup() error {
	vs, err := expand(c.gen.request(0))
	if err != nil {
		return err
	}
	c.variants = len(vs)
	if c.cl, err = startCluster([]string{filepath.Join(c.dir, "shard-0"), filepath.Join(c.dir, "shard-1")}); err != nil {
		return err
	}
	var warm measurement
	c.sweep(&warm, nil, nil)
	if warm.Failed > 0 {
		return fmt.Errorf("warm-up sweep: %v", warm.Problems)
	}
	return nil
}

// coldCheckEvery: one seed-drawn row of every this many requests is
// checked against an in-process core.Run.
const coldCheckEvery = 4

// coldSample is a row whose cycles are checked against an in-process
// core.Run after the measured phase.
type coldSample struct {
	req    service.SweepRequest
	index  int
	result []byte
}

// coldTally counts what the rows were served by.
type coldTally struct{ rows, stolen, failover, routerHits int }

// sweep runs the next request and checks its rows.
func (c *sweepCold) sweep(m *measurement, samples *[]coldSample, tally *coldTally) {
	req := c.gen.request(c.next)
	c.next++
	c.last = req
	var want map[int]bool
	if samples != nil && c.next%coldCheckEvery == 0 {
		r := rngFor(c.seed^int64(c.next), streamCheck)
		want = map[int]bool{r.IntN(c.variants): true}
	}
	seen := map[string]bool{}
	rows := 0
	sum, done, err := streamSweep(context.Background(), c.hc, c.cl.front.URL, req, func(row shard.Row) {
		rows++
		m.Attempted++
		switch {
		case row.Error != "":
			m.fail("cold row %d: %s", row.Index, row.Error)
		case row.Cache != "miss":
			m.fail("cold row %d: cache %q, want miss", row.Index, row.Cache)
		case seen[row.Hash]:
			m.fail("cold row %d: hash repeated", row.Index)
		default:
			if want[row.Index] {
				*samples = append(*samples, coldSample{req: req, index: row.Index, result: row.Result})
			}
		}
		seen[row.Hash] = true
		if tally != nil {
			tally.rows++
			if row.Stolen != "" {
				tally.stolen++
			}
			if row.Failover != "" {
				tally.failover++
			}
			if row.Cache == "router_hit" {
				tally.routerHits++
			}
		}
	})
	switch {
	case err != nil || !done:
		m.Attempted += max(0, c.variants-rows)
		m.Failed += max(0, c.variants-rows)
		m.fail("cold sweep %d: truncated after %d rows: %v", c.next-1, rows, err)
	case sum.Rows != c.variants || rows != c.variants || sum.Errors != 0:
		m.fail("cold sweep %d: summary rows %d errors %d, received %d, want %d distinct variants",
			c.next-1, sum.Rows, sum.Errors, rows, c.variants)
	}
}

func (c *sweepCold) measure(d time.Duration, tr *tracer) (measurement, error) {
	var m measurement
	var lat []float64
	var samples []coldSample
	var tally coldTally
	pr := newProbe()
	before := c.cl.counters()
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		tr.do("router.sweep", tr.newOp(), 0, func(int) { c.sweep(&m, &samples, &tally) })
		lat = append(lat, us(time.Since(t0)))
		pr.sample()
	}
	el := time.Since(start)
	after := c.cl.counters()
	c.checkSamples(&m, samples)
	m.fastSweeps(lat, c.variants, pr, pairFastP)
	m.note("cold_rows_per_s", m.Throughput, "1/s", fmt.Sprintf("fast end of %d sweeps of %d variants, normalized; raw %.6g over the phase",
		len(lat), c.variants, float64(tally.rows)/el.Seconds()))
	m.note("cold_rows_checked", float64(len(samples)), "count", "cycles equal to in-process core.Run")
	m.Layer = map[string]float64{
		"store.disk_hit_frac":   frac(after.StoreHits-before.StoreHits, after.CacheHits-before.CacheHits),
		"sched.rejections":      float64(after.Rejected - before.Rejected),
		"service.jobs":          float64(after.Jobs - before.Jobs),
		"shard.router_hit_frac": frac(uint64(tally.routerHits), uint64(tally.rows)),
		"shard.stolen_rows":     float64(tally.stolen),
		"shard.failover_rows":   float64(tally.failover),
		"bench.gen_late_p99_us": 0, // closed loop: nothing is ever due
	}
	return m, nil
}

// checkSamples replays each sampled row's variant through core.Run in
// process: the served cycles must be the kernel's.
func (c *sweepCold) checkSamples(m *measurement, samples []coldSample) {
	expanded := map[int][]sweep.Variant{}
	for _, s := range samples {
		key := s.req.Axes[len(s.req.Axes)-1].Values[0].(int)
		vs, ok := expanded[key]
		if !ok {
			var err error
			if vs, err = expand(s.req); err != nil {
				m.fail("check sample: %v", err)
				continue
			}
			expanded[key] = vs
		}
		var got service.RunResponse
		if err := json.Unmarshal(s.result, &got); err != nil {
			m.fail("check sample %d: %v", s.index, err)
			continue
		}
		for _, v := range vs {
			if v.Index != s.index {
				continue
			}
			r := core.Run(core.MustFromSpec(v.Spec), core.TLM, core.Options{})
			if uint64(r.Cycles) != got.Cycles || v.Hash != got.Hash {
				m.fail("check sample %s: served %d cycles (hash %s), core.Run %d (hash %s)", v.Spec.Name, got.Cycles, got.Hash, r.Cycles, v.Hash)
			}
		}
	}
}

func (c *sweepCold) replay(tr *tracer, m *measurement) (map[string]float64, error) {
	vs, err := expand(c.last)
	if err != nil {
		return nil, err
	}
	out, err := replayLayers(tr, replayIn{specs: variantSpecs(vs, replayKeys), grid: c.last, stores: c.cl.dirs(), workers: 1}, c.dir, m)
	if err != nil {
		return nil, err
	}
	for k, v := range m.Layer {
		out[k] = v
	}
	return out, nil
}

func (c *sweepCold) close() {
	if c.cl != nil {
		c.cl.close()
	}
	c.hc.CloseIdleConnections()
}

// sweepWarm is the read path: one worker prefilled with more results
// than its memory cache holds, queried with sub-grids of the prefill,
// so every row is a hit from memory or disk and nothing simulates.
type sweepWarm struct {
	seed    int64
	dir     string
	gen     *warmGen
	w       *worker
	hc      *http.Client
	prefill map[string][]byte // variant hash -> its result bytes
	last    service.SweepRequest
}

// warmWorkers is nproc on the reference host.
const warmWorkers = 2

func newSweepWarm(seed int64, dir string) *sweepWarm {
	return &sweepWarm{seed: seed, dir: dir, gen: newWarmGen(seed), hc: newHTTPClient()}
}

func (s *sweepWarm) setup() error {
	var err error
	if s.w, err = startWorker(s.dir, warmWorkers); err != nil {
		return err
	}
	s.prefill = map[string][]byte{}
	req := s.gen.prefill()
	var bad error
	sum, done, err := streamSweep(context.Background(), s.hc, s.w.ts.URL, req, func(row shard.Row) {
		if row.Error != "" || row.Cache != "miss" {
			bad = fmt.Errorf("prefill row %d: cache %q error %q", row.Index, row.Cache, row.Error)
		}
		s.prefill[row.Hash] = row.Result
	})
	switch {
	case err != nil || !done:
		return fmt.Errorf("prefill truncated: %v", err)
	case bad != nil:
		return bad
	case sum.Rows != len(s.prefill) || len(s.prefill) <= service.DefaultCacheEntries:
		return fmt.Errorf("prefill: %d rows, %d distinct; want more than the %d-entry memory cache",
			sum.Rows, len(s.prefill), service.DefaultCacheEntries)
	}
	return nil
}

func (s *sweepWarm) measure(d time.Duration, tr *tracer) (measurement, error) {
	var m measurement
	var lat []float64
	var reqs []service.SweepRequest
	var counts []int
	rows := 0
	pr := newProbe()
	before := s.w.srv.CountersSnapshot()
	start := time.Now()
	for time.Since(start) < d {
		req := s.gen.next()
		s.last = req
		got := 0
		t0 := time.Now()
		tr.do("worker.sweep", tr.newOp(), 0, func(int) {
			sum, done, err := streamSweep(context.Background(), s.hc, s.w.ts.URL, req, func(row shard.Row) {
				got++
				m.Attempted++
				switch {
				case row.Error != "" || row.Cache != "hit":
					m.fail("warm row %d: cache %q error %q", row.Index, row.Cache, row.Error)
				case !bytes.Equal(row.Result, s.prefill[row.Hash]):
					m.fail("warm row %d: body differs from its prefill", row.Index)
				}
			})
			if err != nil || !done || sum.Rows != got || sum.Errors != 0 {
				m.fail("warm sweep: truncated or miscounted (summary %+v, received %d): %v", sum, got, err)
			}
		})
		lat = append(lat, us(time.Since(t0)))
		reqs, counts = append(reqs, req), append(counts, got)
		rows += got
		pr.sample()
	}
	el := time.Since(start)
	after := s.w.srv.CountersSnapshot()
	if after.Jobs != before.Jobs {
		m.fail("warm phase ran %d simulations, want 0", after.Jobs-before.Jobs)
	}
	// A seed-drawn sample of requests must have streamed exactly their
	// grid's distinct variants (checked after timing stops).
	r := rngFor(s.seed, streamCheck)
	for i := 0; i < 8 && len(reqs) > 0; i++ {
		k := r.IntN(len(reqs))
		vs, err := expand(reqs[k])
		if err != nil || len(vs) != counts[k] {
			m.fail("warm sweep %d: %d rows, grid has %d distinct variants (%v)", k, counts[k], len(vs), err)
		}
	}
	m.fastSweeps(lat, warmVariants, pr, fastP)
	m.note("warm_rows_per_s", m.Throughput, "1/s", fmt.Sprintf("fast end of %d sweeps of %d variants, normalized; raw %.6g over the phase",
		len(lat), warmVariants, float64(rows)/el.Seconds()))
	m.Layer = map[string]float64{
		"store.disk_hit_frac":   frac(after.StoreHits-before.StoreHits, after.CacheHits-before.CacheHits),
		"sched.rejections":      float64(after.Rejected - before.Rejected),
		"service.jobs":          float64(after.Jobs - before.Jobs),
		"shard.router_hit_frac": 0, // no router in this workload
		"shard.stolen_rows":     0,
		"shard.failover_rows":   0,
		"bench.gen_late_p99_us": 0,
	}
	return m, nil
}

func (s *sweepWarm) replay(tr *tracer, m *measurement) (map[string]float64, error) {
	vs, err := expand(s.last)
	if err != nil {
		return nil, err
	}
	out, err := replayLayers(tr, replayIn{specs: variantSpecs(vs, replayKeys), grid: s.last, stores: []string{s.w.dir}, workers: warmWorkers}, s.dir, m)
	if err != nil {
		return nil, err
	}
	m.note("warm_over_cold_sim", 1e6/m.Throughput/out["core.run_us"], "x", "warm row time over core.run_us, ungated ratio")
	for k, v := range m.Layer {
		out[k] = v
	}
	return out, nil
}

func (s *sweepWarm) close() {
	if s.w != nil {
		s.w.close()
	}
	s.hc.CloseIdleConnections()
}

// fastSweeps sets the gated figures of a closed loop of sweeps of
// rows variants each, from their latencies (µs) and the probe, both
// taken at percentile pct.
func (m *measurement) fastSweeps(lat []float64, rows int, pr *probe, pct float64) {
	scale := pr.scale(pct)
	raw := percentile(sortedCopy(lat), pct)
	m.Fast = raw * scale
	m.note("latency_fast_raw_us", raw, "us", "not normalized, not gated")
	m.Throughput = float64(rows) / m.Fast * 1e6
	m.Lat = summarize(lat)
	m.note("host_scale", scale, "x", fmt.Sprintf("probe p%g %.4g us over n=%d", pct, probeNominalUs/scale, len(pr.times)))
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
