package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/sweep"
)

// replayIn is one workload's inputs for the per-layer replay.
type replayIn struct {
	specs   []spec.Spec          // run through every layer, in the order the server calls them
	grid    service.SweepRequest // walked for the sweep layer
	stores  []string             // the workload's filled store dirs (copied, never opened live); nil: the replay cluster's
	workers int                  // the workload's worker count, for the scheduler round trip
}

// replayRTLRuns is how many of the replayed specs also run on the RTL
// model, which is 15 to 20 times slower per cycle.
const replayRTLRuns = 3

// replayLayers sends the inputs through each layer's public functions
// with a span around every call, and derives the per-layer metrics
// from the spans' self times. It builds its own 2-shard cluster on
// fresh stores, so misses, hits, backend hits and router hits are all
// observed for the same keys.
func replayLayers(tr *tracer, in replayIn, scratch string, m *measurement) (map[string]float64, error) {
	out := map[string]float64{}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	ctx := context.Background()

	wire := make([][]byte, len(in.specs))
	bodies := make([][]byte, len(in.specs))
	hashes := make([]string, len(in.specs))
	for i, s := range in.specs {
		var err error
		if wire[i], err = json.Marshal(s); err != nil {
			return nil, err
		}
		if bodies[i], err = json.Marshal(service.RunRequest{Spec: &in.specs[i], Model: "tl"}); err != nil {
			return nil, err
		}
		if hashes[i], err = s.Hash(); err != nil {
			return nil, err
		}
	}

	// Spec and kernel, in process: decode -> validate -> hash -> core.Run.
	var cycles uint64
	var tlmNs, rtlNs []float64
	for i := range in.specs {
		op := tr.newOp()
		var err error
		tr.do("replay.inproc", op, 0, func(root int) {
			var s spec.Spec
			tr.do("spec.decode", op, root, func(int) { s, err = spec.Decode(wire[i]) })
			if err != nil {
				return
			}
			tr.do("spec.validate", op, root, func(int) { err = s.Validate() })
			if err != nil {
				return
			}
			tr.do("spec.hash", op, root, func(int) { _, err = s.Hash() })
			w, werr := core.FromSpec(s)
			if err = werr; err != nil {
				return
			}
			var r core.RunResult
			t0 := time.Now()
			tr.do("core.run", op, root, func(int) { r = core.Run(w, core.TLM, core.Options{}) })
			tlmNs = append(tlmNs, float64(time.Since(t0))/float64(r.Cycles))
			cycles += uint64(r.Cycles)
			if i < replayRTLRuns {
				t0 = time.Now()
				tr.do("core.run_rtl", op, root, func(int) { r = core.Run(w, core.RTL, core.Options{}) })
				rtlNs = append(rtlNs, float64(time.Since(t0))/float64(r.Cycles))
			}
		})
		if err != nil {
			return nil, fmt.Errorf("replay spec %s: %w", in.specs[i].Name, err)
		}
	}
	out["core.tlm_ns_per_cycle"] = median(tlmNs)
	out["core.rtl_ns_per_cycle"] = median(rtlNs)
	out["core.cycles"] = float64(cycles)
	out["core.allocs_per_run"], out["spec.validate_allocs"] = replayAllocs(in.specs)

	// Sweep: the workload's grid through ResolveSweepGrid and Walk,
	// which validates and hashes every variant.
	_, lib := service.ScenarioLibrary()
	wireGrid, err := wireForm(in.grid)
	if err != nil {
		return nil, err
	}
	var walks []float64
	for i := 0; i < 3; i++ {
		grid, _, err := service.ResolveSweepGrid(wireGrid, lib, 0)
		if err != nil {
			return nil, fmt.Errorf("replay grid: %w", err)
		}
		n := 0
		t0 := time.Now()
		tr.do("sweep.walk", tr.newOp(), 0, func(int) {
			err = grid.Walk(func(_ sweep.Variant, verr error) error { n++; return verr })
		})
		if err != nil || n == 0 {
			return nil, fmt.Errorf("replay walk: %d variants, %v", n, err)
		}
		walks = append(walks, us(time.Since(t0))/float64(n))
	}
	out["sweep.walk_us_per_variant"] = median(walks)

	// Scheduler: Submit plus waiting on a no-op, at the workload's
	// worker count.
	sc := sched.New(sched.Options{Workers: in.workers})
	for i := 0; i < 2000; i++ {
		var err error
		tr.do("sched.roundtrip", tr.newOp(), 0, func(int) {
			var wait func()
			if wait, err = sc.Submit(sched.DefaultTenant, sched.Interactive, func() {}); err == nil {
				wait()
			}
		})
		if err != nil {
			sc.Close()
			return nil, fmt.Errorf("replay sched: %w", err)
		}
	}
	sc.Close()

	// Worker and router over HTTP: per key a direct miss at the owner
	// worker, a direct hit, the router's first request (a backend hit)
	// and its repeat (a router hit). Every body must be the miss's bytes.
	cl, err := startCluster([]string{filepath.Join(scratch, "replay-0"), filepath.Join(scratch, "replay-1")})
	if err != nil {
		return nil, err
	}
	var queue, simulate, encode []float64
	calls := []struct{ span, cache string }{
		{"service.miss", "miss"}, {"service.hit", "hit"},
		{"shard.backend_hit", "hit"}, {"shard.router_hit", "router_hit"},
	}
	for i := range in.specs {
		op := tr.newOp()
		owner := cl.owner(hashes[i]).ts.URL + "/run"
		var first []byte
		tr.do("replay.http", op, 0, func(root int) {
			for k, c := range calls {
				url := owner
				if k >= 2 {
					url = cl.front.URL + "/run"
				}
				var status int
				var hdr http.Header
				var body []byte
				var err error
				tr.do(c.span, op, root, func(int) { status, hdr, body, err = post(ctx, hc, url, bodies[i]) })
				switch {
				case err != nil || status != 200:
					m.fail("replay %s %s: status %d err %v", c.span, in.specs[i].Name, status, err)
					return
				case hdr.Get("X-Cache") != c.cache:
					m.fail("replay %s %s: X-Cache %q, want %q", c.span, in.specs[i].Name, hdr.Get("X-Cache"), c.cache)
				case k == 0:
					first = body
					q, s, e, ok := parseTiming(hdr.Get(service.TimingHeader))
					if !ok {
						m.fail("replay miss %s: unparseable %s %q", in.specs[i].Name, service.TimingHeader, hdr.Get(service.TimingHeader))
					}
					queue, simulate, encode = append(queue, q), append(simulate, s), append(encode, e)
				case !bytes.Equal(body, first):
					m.fail("replay %s %s: body differs from the miss", c.span, in.specs[i].Name)
				}
			}
		})
	}
	out["service.queue_us"], out["service.simulate_us"], out["service.encode_us"] = median(queue), median(simulate), median(encode)
	dirs := in.stores
	if dirs == nil {
		dirs = cl.dirs()
	}
	err = replayStore(tr, dirs, scratch, hashes, bodies, out)
	cl.close()
	if err != nil {
		return nil, err
	}

	byName := selfByName(tr.snapshot())
	for metric, spanName := range map[string]string{
		"spec.decode_us": "spec.decode", "spec.validate_us": "spec.validate", "spec.hash_us": "spec.hash",
		"core.run_us": "core.run", "sched.roundtrip_us": "sched.roundtrip",
		"service.hit_us": "service.hit", "shard.backend_hit_us": "shard.backend_hit",
		"shard.router_hit_us": "shard.router_hit",
		"store.open_ms":       "store.open", "store.get_us": "store.get", "store.put_us": "store.put",
	} {
		out[metric] = median(byName[spanName])
	}
	out["store.open_ms"] /= 1000
	// The router hop: the same key's backend hit through the router
	// minus its direct hit at the owner worker.
	out["shard.hop_us"] = out["shard.backend_hit_us"] - out["service.hit_us"]
	return out, nil
}

// replayStore opens a copy of each filled store directory (the live
// store assumes it is its directory's only writer), then gets every
// replayed key it holds and puts it back.
func replayStore(tr *tracer, dirs []string, scratch string, hashes []string, bodies [][]byte, out map[string]float64) error {
	var stores []*store.Store
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	where := map[string]*store.Store{}
	for i, dir := range dirs {
		cp := filepath.Join(scratch, fmt.Sprintf("storecopy-%d", i))
		if err := copyDir(dir, cp); err != nil {
			return fmt.Errorf("copy store: %w", err)
		}
		var st *store.Store
		var err error
		tr.do("store.open", tr.newOp(), 0, func(int) { st, err = store.Open(cp, 0) })
		if err != nil {
			return fmt.Errorf("open store copy: %w", err)
		}
		stores = append(stores, st)
		for _, k := range st.Enumerate("run:") {
			where[k] = st
		}
	}
	found := 0
	for i, h := range hashes {
		key, err := service.ResultKey("tl", h)
		if err != nil {
			return err
		}
		st := where[key]
		if st == nil {
			continue
		}
		found++
		op := tr.newOp()
		tr.do("store.get", op, 0, func(int) { _, _ = st.Get(key) })
		tr.do("store.put", op, 0, func(int) { err = st.Put(key, bodies[i]) })
		if err != nil {
			return fmt.Errorf("store put: %w", err)
		}
	}
	if found == 0 {
		return fmt.Errorf("replay store: none of %d keys in %d store copies", len(hashes), len(dirs))
	}
	return nil
}

// replayAllocs counts heap allocations per TLM core.Run and per
// Validate, untraced so the tracer's own allocations stay out.
func replayAllocs(specs []spec.Spec) (perRun, perValidate float64) {
	var before, after runtime.MemStats
	n := min(len(specs), 8)
	var runs []float64
	for _, s := range specs[:n] {
		w := core.MustFromSpec(s)
		runtime.ReadMemStats(&before)
		core.Run(w, core.TLM, core.Options{})
		runtime.ReadMemStats(&after)
		runs = append(runs, float64(after.Mallocs-before.Mallocs))
	}
	runtime.ReadMemStats(&before)
	for _, s := range specs {
		_ = s.Validate()
	}
	runtime.ReadMemStats(&after)
	return median(runs), float64(after.Mallocs-before.Mallocs) / float64(len(specs))
}

// parseTiming reads an X-Timing value, "queue=..;simulate=..;encode=..",
// into microseconds.
func parseTiming(v string) (queue, simulate, encode float64, ok bool) {
	got := map[string]float64{}
	for _, part := range strings.Split(v, ";") {
		k, d, found := strings.Cut(part, "=")
		if !found {
			return 0, 0, 0, false
		}
		dur, err := time.ParseDuration(d)
		if err != nil {
			return 0, 0, 0, false
		}
		got[k] = us(dur)
	}
	queue, okq := got["queue"]
	simulate, oks := got["simulate"]
	encode, oke := got["encode"]
	return queue, simulate, encode, okq && oks && oke
}
