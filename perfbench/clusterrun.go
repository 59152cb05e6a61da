package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// clusterRun is the interactive path: POST /run to a 2-shard router
// over a prefilled working set. Most requests are router hits; about
// one in ten is the first request at this router for a result its
// owner worker already holds (as a second router replica would leave
// it), a backend hit through the router hop. Nothing simulates in the
// measured phase.
//
// The measured time is split in two. First one client sends
// back-to-back (a closed loop), with the host-speed probe between
// requests: its fast-end latency is the gated figure (see calib.go).
// Then an open loop climbs a fixed-rate ladder, as independent users
// would send: its latency at a reference rate and its highest rate
// within the latency limit are printed, not gated, because there they
// spread wider than any bound the benchmark can hold (see README.md).
type clusterRun struct {
	seed    int64
	dir     string
	planned time.Duration // measured time the key sequence must cover
	cl      *cluster
	hc      *http.Client
	keys    *runKeys
	router  [][]byte // expected body per router key
	fresh   [][]byte // expected body per fresh key
	pos     int      // next position in keys.Seq
}

// rung is one fixed rate of the ladder and its share of the ladder's
// time.
type rung struct {
	rate  float64 // requests per second
	share float64
}

// The ladder: a reference rung well below capacity, where the latency
// figures are taken, then rungs climbing through the saturation point
// of two connections on the reference host (10000 to 12000 per second).
var ladder = []rung{{2000, 0.4}, {6000, 0.12}, {8000, 0.12}, {10000, 0.12}, {12000, 0.12}, {14000, 0.12}}

const (
	// closedShare is the closed loop's share of the measured time.
	closedShare = 0.5
	// closedMaxRate bounds the closed loop's rate for sizing the key
	// sequence (with the probe it runs at about 5000 per second on the
	// reference host); a faster loop stops early rather than repeat a
	// fresh key.
	closedMaxRate = 12000
	// probeEvery: the closed loop samples the probe after every this
	// many requests.
	probeEvery = 4
	refRung    = 0
	// sloLimit is the tail-latency limit a rung must meet, timed from
	// each request's due time. It sits well above the reference rung's
	// tail, so a rung fails when its queue grows, not on one stall.
	sloLimit = 5 * time.Millisecond
	// shedAfter: a request this far behind schedule is not sent; it
	// counts as missing the limit (the rung is overloaded), not as a
	// wrong answer.
	shedAfter = 200 * time.Millisecond
	// runRouterKeys is the router-hit working set.
	runRouterKeys = 256
)

func newClusterRun(seed int64, dir string, planned time.Duration) *clusterRun {
	return &clusterRun{seed: seed, dir: dir, planned: planned, hc: newHTTPClient()}
}

func (c *clusterRun) setup() error {
	sec := c.planned.Seconds()
	total := closedMaxRate * closedShare * sec
	for _, r := range ladder {
		total += r.rate * r.share * (1 - closedShare) * sec
	}
	var err error
	if c.keys, err = newRunKeys(c.seed, runRouterKeys, int(total)+100); err != nil {
		return err
	}
	if c.cl, err = startCluster([]string{filepath.Join(c.dir, "shard-0"), filepath.Join(c.dir, "shard-1")}); err != nil {
		return err
	}
	// Router keys are computed directly at their owner worker, then
	// relayed once through the router, which caches them.
	if c.router, err = c.prefillRun(c.keys.Router, false); err != nil {
		return err
	}
	if err := c.prefillFresh(); err != nil {
		return err
	}
	_, err = c.prefillRun(c.keys.Router, true)
	return err
}

// prefillRun posts bodies two at a time, directly to each key's owner
// or (viaRouter) through the router, and returns the response bodies.
func (c *clusterRun) prefillRun(bodies [][]byte, viaRouter bool) ([][]byte, error) {
	out := make([][]byte, len(bodies))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(bodies) && errs[g] == nil; i += 2 {
				hash, err := runHash(bodies[i])
				if err != nil {
					errs[g] = err
					return
				}
				url, want := c.cl.owner(hash).ts.URL+"/run", "miss"
				if viaRouter {
					url, want = c.cl.front.URL+"/run", "hit"
				}
				status, hdr, body, err := post(context.Background(), c.hc, url, bodies[i])
				if err != nil || status != http.StatusOK || hdr.Get("X-Cache") != want {
					errs[g] = fmt.Errorf("prefill %s: status %d X-Cache %q (want %q): %v", url, status, hdr.Get("X-Cache"), want, err)
				}
				out[i] = body
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prefillFresh sweeps the fresh-key grid through a second router over
// the same workers, as a second router replica would: every result
// lands at its owner worker, and the measured router never saw it.
func (c *clusterRun) prefillFresh() error {
	var urls []string
	for _, w := range c.cl.workers {
		urls = append(urls, w.ts.URL)
	}
	rt, err := shard.New(shard.Options{Backends: urls, RouterCacheBytes: routerCacheBytes})
	if err != nil {
		return err
	}
	defer rt.Close()
	replica := httptest.NewServer(rt.Handler())
	defer replica.Close()
	byHash := map[string][]byte{}
	var bad error
	sum, done, err := streamSweep(context.Background(), c.hc, replica.URL, c.keys.FreshGrid, func(row shard.Row) {
		if row.Error != "" || row.Cache != "miss" {
			bad = fmt.Errorf("fresh prefill row %d: cache %q error %q", row.Index, row.Cache, row.Error)
		}
		byHash[row.Hash] = row.Result
	})
	switch {
	case err != nil || !done:
		return fmt.Errorf("fresh prefill truncated: %v", err)
	case bad != nil:
		return bad
	case sum.Errors != 0:
		return fmt.Errorf("fresh prefill: %d error rows", sum.Errors)
	}
	c.fresh = make([][]byte, len(c.keys.Fresh))
	for i, b := range c.keys.Fresh {
		h, err := runHash(b)
		if err != nil {
			return err
		}
		if c.fresh[i] = byHash[h]; c.fresh[i] == nil {
			return fmt.Errorf("fresh key %d not in the prefill sweep", i)
		}
	}
	return nil
}

// runHash is the content hash of a /run body's inline spec.
func runHash(body []byte) (string, error) {
	var req service.RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	return req.Spec.Hash()
}

// runTally accumulates what served the requests.
type runTally struct{ served, routerHits, shed int }

// send posts key ref through the router and checks the answer: 200,
// the expected X-Cache, and the prefill's bytes. It returns the
// problem, "" when the answer was right, and the X-Cache seen.
func (c *clusterRun) send(ref keyRef, tr *tracer) (problem, cache string) {
	want, wantCache := c.router, "router_hit"
	if ref.Fresh {
		want, wantCache = c.fresh, "hit"
	}
	var status int
	var hdr http.Header
	var body []byte
	var err error
	tr.do("router.run", tr.newOp(), 0, func(int) {
		status, hdr, body, err = post(context.Background(), c.hc, c.cl.front.URL+"/run", c.keys.body(ref))
	})
	switch {
	case err != nil || status != http.StatusOK:
		return fmt.Sprintf("run: status %d: %v", status, err), ""
	case hdr.Get("X-Cache") != wantCache:
		return fmt.Sprintf("run: X-Cache %q, want %q", hdr.Get("X-Cache"), wantCache), hdr.Get("X-Cache")
	case !bytes.Equal(body, want[ref.Idx]):
		return "run: body differs from its prefill", hdr.Get("X-Cache")
	}
	return "", hdr.Get("X-Cache")
}

// drive sends seq through loop and folds the outcomes into m and t.
func (c *clusterRun) drive(m *measurement, t *runTally, tr *tracer, seq []keyRef,
	loop func(send func(i int) bool) []shot) []shot {
	problems := make([]string, len(seq))
	caches := make([]string, len(seq))
	sent := make([]bool, len(seq))
	shots := loop(func(i int) bool {
		sent[i] = true
		problems[i], caches[i] = c.send(seq[i], tr)
		return problems[i] == ""
	})
	for i := range shots {
		if !sent[i] {
			t.shed++
			continue
		}
		m.Attempted++
		t.served++
		if caches[i] == "router_hit" {
			t.routerHits++
		}
		if problems[i] != "" {
			m.fail("%s", problems[i])
		}
	}
	return shots
}

func (c *clusterRun) measure(d time.Duration, tr *tracer) (measurement, error) {
	var m measurement
	var t runTally
	before := c.cl.counters()

	// Closed loop: one client back to back, the probe between requests.
	cd := time.Duration(float64(d) * closedShare)
	seq := c.keys.Seq[c.pos:min(len(c.keys.Seq), c.pos+int(closedMaxRate*cd.Seconds()))]
	pr := newProbe()
	start := time.Now()
	shots := c.drive(&m, &t, tr, seq, func(send func(int) bool) []shot {
		clk := wallClock{origin: start}
		var shots []shot
		for i := range seq {
			at := clk.now()
			if at >= cd {
				break
			}
			ok := send(i)
			shots = append(shots, shot{Due: at, Start: at, End: clk.now(), OK: ok})
			if i%probeEvery == 0 {
				pr.sample()
			}
		}
		return shots
	})
	c.pos += len(shots)
	ops := opKinds{}
	lat := make([]float64, len(shots))
	for i, s := range shots {
		lat[i] = us(s.latency())
		kind := "router_hit"
		if seq[i].Fresh {
			kind = "backend_hit"
		}
		ops.add(kind, lat[i])
	}
	scale := pr.scale(fastP)
	// A request at the fast end, router and backend hits in the
	// proportion the key sequence asks for them.
	m.Fast = ops.fast(map[string]float64{"router_hit": 1 - 1.0/freshEvery, "backend_hit": 1.0 / freshEvery}, scale)
	m.Throughput = 1e6 / m.Fast
	m.note("latency_fast_raw_us", m.Fast/scale, "us", "not normalized, not gated")
	m.Lat = summarize(lat)
	for _, k := range []string{"router_hit", "backend_hit"} {
		m.note("closed_"+k+"_us", ops.fast(map[string]float64{k: 1}, scale), "us",
			fmt.Sprintf("fast end of n=%d, normalized; raw p50 %.4g", len(ops[k]), median(ops[k])))
	}
	m.note("host_scale", scale, "x", fmt.Sprintf("probe p%g %.4g us over n=%d", fastP, probeNominalUs/scale, len(pr.times)))

	// Open loop: the rate ladder.
	ld := d - cd
	var steps []step
	var refLate []float64
	for _, r := range ladder {
		n := int(r.rate * r.share * ld.Seconds())
		if c.pos+n > len(c.keys.Seq) {
			return m, fmt.Errorf("key sequence exhausted at %d of %d", c.pos+n, len(c.keys.Seq))
		}
		clk := wallClock{origin: time.Now()}
		dues := dueTimes(r.rate, n)
		shots := c.drive(&m, &t, tr, c.keys.Seq[c.pos:c.pos+n], func(send func(int) bool) []shot {
			return openLoop(clk, dues, 2, func(i int) bool {
				if clk.now()-dues[i] > shedAfter {
					return false
				}
				return send(i)
			})
		})
		c.pos += n
		if len(steps) == refRung {
			for _, s := range shots {
				refLate = append(refLate, us(s.late()))
			}
		}
		st := judgeStep(r.rate, shots, sloLimit)
		steps = append(steps, st)
		m.note(fmt.Sprintf("rung_%g_rps", r.rate), st.Lat.Tail, "us",
			fmt.Sprintf("latency %s; late %s; pass %v", st.Lat, st.Late, st.Pass))
	}
	after := c.cl.counters()
	if after.Jobs != before.Jobs {
		m.fail("cluster-run ran %d simulations, want 0", after.Jobs-before.Jobs)
	}
	ref := steps[refRung]
	m.note("run_max_rps_at_slo", maxRateAtSLO(steps, sloLimit), "1/s",
		fmt.Sprintf("windowed p%g <= %v, no growing backlog; not gated", ref.Lat.TailP, sloLimit))
	m.note("run_p50_us", ref.Lat.Median, "us", fmt.Sprintf("at %g rps, from due time; not gated", ref.Rate))
	m.note("run_tail_us", ref.Lat.Tail, "us", fmt.Sprintf("p%g, median of %d-request windows, at %g rps (n=%d); not gated",
		ref.Lat.TailP, tailWindow, ref.Rate, ref.Lat.N))
	m.note("shed", float64(t.shed), "count", "overloaded rungs: not sent, counted against the limit")
	m.Layer = map[string]float64{
		"store.disk_hit_frac":   frac(after.StoreHits-before.StoreHits, after.CacheHits-before.CacheHits),
		"sched.rejections":      float64(after.Rejected - before.Rejected),
		"service.jobs":          float64(after.Jobs - before.Jobs),
		"shard.router_hit_frac": frac(uint64(t.routerHits), uint64(t.served)),
		"shard.stolen_rows":     0, // no sweeps in this workload
		"shard.failover_rows":   0,
		"bench.gen_late_p99_us": percentile(sortedCopy(refLate), 99), // below capacity: the generator's own lateness
	}
	return m, nil
}

func (c *clusterRun) replay(tr *tracer, m *measurement) (map[string]float64, error) {
	var specs []spec.Spec
	for _, b := range c.keys.Router[:replayKeys] {
		var req service.RunRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, err
		}
		specs = append(specs, *req.Spec)
	}
	// The working set as a grid: the Table 1 mixes at the urgency
	// values of the first keys.
	var urg []any
	for _, s := range specs[:4] {
		urg = append(urg, int(s.Params.UrgencyThreshold))
	}
	grid := service.SweepRequest{Scenario: baseScenario, Name: "bench/run", Model: "tl", Axes: []service.SweepAxis{
		axis(sweep.ParamMix, anys(table1Names())...), axis(sweep.ParamUrgencyThreshold, urg...),
	}}
	out, err := replayLayers(tr, replayIn{specs: specs, grid: grid, stores: c.cl.dirs(), workers: 1}, c.dir, m)
	if err != nil {
		return nil, err
	}
	for k, v := range m.Layer {
		out[k] = v
	}
	return out, nil
}

func (c *clusterRun) close() {
	if c.cl != nil {
		c.cl.close()
	}
	c.hc.CloseIdleConnections()
}
