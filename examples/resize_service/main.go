// Resize drill: drive a supervised cluster through a live grow and a
// live drain under load, and prove elasticity costs nothing the
// serving layer promised:
//
//  1. computes the fault-free reference: an in-process single server
//     runs a 64-variant grid through /sweep/analyze; that JSON
//     document is the byte-exact truth every later analysis must
//     reproduce, resizes or no resizes;
//
//  2. spawns TWO real simd worker processes under the shard
//     supervisor behind an in-process router, starts streaming the
//     64-variant sweep, and — after the first row arrives — POSTs
//     /admin/shards {"count":2} to grow the cluster to four workers
//     MID-SWEEP: the stream must finish with zero error rows and a
//     truthful summary, the topology must land at epoch 2 with four
//     members, and a post-grow /sweep/analyze must answer
//     byte-identically to the reference;
//
//  3. re-sweeps after the grow (the new members now own their
//     rendezvous slices — rows served by shards 2 and 3 prove the
//     admission was real, and re-owned variants recompute to the
//     same bytes);
//
//  4. drains shard 1 while four clients hammer its warm keyspace
//     with /run repeats: POST /admin/shards/1/drain must migrate
//     every envelope to the survivors BEFORE the membership swap, so
//     the hammering clients see zero failures and zero cache misses
//     throughout, and the supervisor must retire the worker process
//     (state "retired", never respawned);
//
//  5. replays the full sweep on the shrunk cluster: zero error rows,
//     no row served by the retired ID, EVERY row a warm "hit" — the
//     drained shard's keys answered from their new owners' stores —
//     and a final /sweep/{id}/analyze byte-identical to the
//     reference with zero re-simulation.
//
//     go run ./examples/resize_service [-simd PATH]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the resize smoke; it exits nonzero on any violation.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/config"
	"repro/internal/drill"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
)

// d is the running drill.
var d *drill.Drill

// resizeBase is the drill workload: TL-model and small, so the whole
// drill — two full sweeps, a grow, a drain under load — stays a smoke.
func resizeBase() spec.Spec {
	return spec.Spec{
		SpecVersion: spec.Version,
		Name:        "resize/base",
		Params:      config.Default(2),
		Masters: []spec.GenSpec{
			{Kind: spec.KindSequential, Base: 0, Beats: 8, Count: 600, Gap: 2, WrapBytes: 0x40000},
			{Kind: spec.KindStream, Base: 0x80000, Beats: 4, Period: 40, Count: 300, WrapBytes: 0x20000},
		},
	}
}

func sweepRequest() service.SweepRequest {
	base := resizeBase()
	return service.SweepRequest{
		Base: &base, Name: "resize/grid", Model: "tl",
		Axes: []service.SweepAxis{
			{Param: "write_buffer_depth", Values: []any{0, 2, 4, 8}},
			{Param: "bi_enabled", Values: []any{true, false}},
			{Param: "closed_page", Values: []any{true, false}},
			{Param: "pipelining", Values: []any{true, false}},
			{Param: "filters", Values: []any{"all", "rr-only"}},
		},
	}
}

func analyzeRequest() service.AnalyzeRequest {
	return service.AnalyzeRequest{
		SweepRequest: sweepRequest(),
		Request: agg.Request{
			Metric: "cycles", TopK: 5,
			Frontier: &agg.FrontierSpec{X: "cycles", Y: "throughput", YObjective: agg.ObjectiveMax},
		},
	}
}

// completeAnalysis analyzes the grid against url and returns the
// document's bytes, failing the drill on an incomplete analysis.
func completeAnalysis(url string) []byte {
	doc, body := d.Analyze(url, analyzeRequest())
	if doc.Incomplete {
		d.Failf("analysis incomplete: %s", body)
	}
	return body
}

func topology(front string) shard.Topology {
	_, _, body := d.Get(front + "/admin/shards")
	var top shard.Topology
	if err := json.Unmarshal(body, &top); err != nil {
		d.Failf("topology: %v", err)
	}
	return top
}

func main() {
	d = drill.New("resize_service")
	defer d.Close()

	// 1. The fault-free reference analysis, computed in-process.
	_, refURL, stopRef := d.Server(service.Options{Workers: 4, StoreDir: filepath.Join(d.Tmp, "ref")})
	refBody := completeAnalysis(refURL)
	stopRef()
	fmt.Printf("fault-free reference: %d analysis bytes\n", len(refBody))

	// The same grid, expanded locally: the row-count truth and the
	// source of warm /run bodies for the drain-under-load phase.
	variants, err := service.ExpandSweepRequest(sweepRequest(), nil, 0)
	if err != nil {
		d.Failf("expanding grid locally: %v", err)
	}
	specByName := make(map[string]spec.Spec, len(variants))
	for _, v := range variants {
		specByName[v.Spec.Name] = v.Spec
	}

	// 2. The elastic cluster: two supervised workers to start. The
	// argsFor closure keys store directories by STABLE shard ID, so
	// workers admitted later get their own fresh stores.
	dir := filepath.Join(d.Tmp, "cluster")
	sup, front := d.Cluster(2, func(i int) []string {
		return []string{"-workers", "1", "-store", filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
	}, shard.SpawnOptions{}, shard.Options{})

	if top := topology(front); top.Epoch != 1 || len(top.Members) != 2 {
		d.Failf("boot topology: %+v", top)
	}

	// Grow 2→4 mid-sweep: fire the admin call from the row callback so
	// the membership swap lands while the stream is in flight.
	grew := false
	rows, summary, _ := d.Sweep(front+"/sweep", sweepRequest(), func(shard.Row) bool {
		if !grew {
			grew = true
			if status, _, body := d.Post(front+"/admin/shards", map[string]any{"count": 2}); status != http.StatusOK {
				d.Failf("grow status %d: %s", status, body)
			}
		}
		return true
	})
	if summary.Errors != 0 {
		d.Failf("mid-grow sweep carried %d error rows, want 0", summary.Errors)
	}
	if len(rows) != len(variants) {
		d.Failf("mid-grow sweep carried %d rows, want %d", len(rows), len(variants))
	}
	top := topology(front)
	if top.Epoch != 2 || len(top.Members) != 4 {
		d.Failf("post-grow topology: %+v", top)
	}
	fmt.Printf("grew 2→4 mid-sweep: %d rows, 0 errors, epoch %d\n", len(rows), top.Epoch)
	if body := completeAnalysis(front); !bytes.Equal(body, refBody) {
		d.Failf("post-grow analysis differs from the fault-free reference:\n%s\n%s", body, refBody)
	}

	// 3. The admission was real: a fresh sweep routes re-owned
	// variants to the new members.
	rows, summary, _ = d.Sweep(front+"/sweep", sweepRequest(), nil)
	if summary.Errors != 0 {
		d.Failf("post-grow sweep carried %d error rows", summary.Errors)
	}
	newServed := 0
	for _, r := range rows {
		if r.Shard >= 2 {
			newServed++
		}
	}
	if newServed == 0 {
		d.Failf("no row served by an admitted shard — the grow changed nothing")
	}
	fmt.Printf("post-grow sweep: %d/%d rows served by the new members\n", newServed, len(rows))

	// 4. Drain shard 1 under load: four clients hammer its (warm)
	// keyspace; nobody may see a failure or a recompute. The warm
	// request bodies come from the local grid expansion, matched to
	// rows by variant name.
	warm := make([][]byte, 0, len(rows))
	for _, r := range rows {
		if r.Shard != 1 || r.Error != "" {
			continue
		}
		sp, ok := specByName[r.Name]
		if !ok {
			d.Failf("row %s has no local grid counterpart", r.Name)
		}
		req, err := json.Marshal(service.RunRequest{Spec: &sp, Model: "tl"})
		if err != nil {
			d.Failf("%v", err)
		}
		warm = append(warm, req)
	}
	if len(warm) == 0 {
		d.Failf("shard 1 served nothing — degenerate drill")
	}
	stop := make(chan struct{})
	var misses, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(front+"/run", "application/json", bytes.NewReader(warm[(g+i)%len(warm)]))
				if err != nil {
					failures.Add(1)
					continue
				}
				cache := resp.Header.Get("X-Cache")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				} else if cache == "miss" {
					misses.Add(1)
				}
			}
		}(g)
	}
	status, _, body := d.Post(front+"/admin/shards/1/drain", nil)
	close(stop)
	wg.Wait()
	if status != http.StatusOK {
		d.Failf("drain status %d: %s", status, body)
	}
	var report shard.DrainReport
	if err := json.Unmarshal(body, &report); err != nil {
		d.Failf("drain report: %v", err)
	}
	if report.Drained != 1 || report.Moved == 0 {
		d.Failf("drain report implausible: %+v", report)
	}
	if n := failures.Load(); n != 0 {
		d.Failf("%d /run failures during the drain", n)
	}
	if n := misses.Load(); n != 0 {
		d.Failf("%d cache misses during the drain — a warm key went cold", n)
	}
	top = topology(front)
	if top.Epoch != 3 || len(top.Members) != 3 {
		d.Failf("post-drain topology: %+v", top)
	}
	fmt.Printf("drained shard 1 under load: moved %d envelopes, 0 failures, 0 misses, epoch %d\n",
		report.Moved, top.Epoch)

	// The supervisor retired the worker — and never respawns it.
	retired := false
	deadline := time.Now().Add(10 * time.Second)
	for !retired && time.Now().Before(deadline) {
		for _, p := range sup.Status() {
			if p.Index == 1 && p.State == shard.ProcRetired {
				retired = true
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !retired {
		d.Failf("supervisor never marked shard 1 retired: %+v", sup.Status())
	}

	// 5. The drained keyspace replays warm from its new owners.
	rows, summary, _ = d.Sweep(front+"/sweep", sweepRequest(), nil)
	if summary.Errors != 0 {
		d.Failf("post-drain sweep carried %d error rows", summary.Errors)
	}
	for _, r := range rows {
		if r.Shard == 1 {
			d.Failf("row %s served by the drained shard", r.Name)
		}
		if r.Cache != "hit" {
			d.Failf("post-drain row %s disposition %q, want a warm hit from its new owner", r.Name, r.Cache)
		}
	}
	if body := completeAnalysis(front); !bytes.Equal(body, refBody) {
		d.Failf("post-drain analysis differs from the fault-free reference")
	}
	fmt.Printf("post-drain replay: %d rows, all warm hits from the surviving members\n", len(rows))
	fmt.Println("resize_service: OK")
}
