// Chaos drill: drive a supervised 3-shard cluster through the fault
// menu — SIGKILL mid-sweep, a crash-looping worker, on-disk result
// corruption — and prove the serving layer's promises survive all of
// it: zero error rows under single-shard loss, byte-identical
// analyses, truthful summaries and healthz verdicts. The drill:
//
//  1. computes the fault-free reference: an in-process single server
//     runs a 64-variant RTL grid through /sweep/analyze; that JSON
//     document is the byte-exact truth every later analysis must
//     reproduce, faults or no faults;
//
//  2. spawns three real simd worker processes under the shard
//     supervisor behind an in-process router, streams the 64-variant
//     sweep cold, and SIGKILLs the busiest shard after its first
//     row: all 64 rows must still arrive with ZERO error rows — the
//     dead shard's variants served by the next-ranked live shard and
//     tagged with their failover path — and the terminal summary
//     must be truthful;
//
//  3. waits for the supervisor to revive the victim and requires
//     POST /sweep/analyze to return a document byte-identical to the
//     fault-free reference, incomplete=false — and the sweep MANIFEST
//     to have survived the SIGKILL atomically: GET /sweep/{id} parses
//     cleanly and reports the sweep complete (the checkpoint write is
//     tmp+rename, so a kill can lose a checkpoint but never tear
//     one), GET /sweep/{id}/resume replays the tail with zero error
//     rows, and the post-hoc POST /sweep/{id}/analyze is
//     byte-identical to the fault-free reference;
//
//  4. crash-loops a different shard (SIGKILL every revival) until
//     the supervisor exhausts its respawn budget: healthz must
//     report that shard dead and the cluster not-OK, yet a
//     dead-owned /run is answered by a survivor with X-Failover and
//     the analysis is STILL complete and byte-identical;
//
//  5. corrupts result envelopes in the first victim's store
//     directory and SIGKILLs it once more: the revived worker must
//     count and delete the damage (healthz store.corrupt_at_open),
//     and a final sweep — one shard permanently dead, one freshly
//     healed of corruption — still streams zero error rows,
//     byte-identical to round 2.
//
//     go run ./examples/chaos_service [-simd PATH]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the chaos smoke; it exits nonzero on any violation.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/drill"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
)

// d is the running drill.
var d *drill.Drill

// chaosBase is the drill workload: RTL-model heavy enough that a
// 64-variant sweep gives the faults a real window to land in, light
// enough that the whole drill stays a smoke test.
func chaosBase() spec.Spec {
	return spec.Spec{
		SpecVersion: spec.Version,
		Name:        "chaos/base",
		Params:      config.Default(2),
		MaxCycles:   50_000_000,
		Masters: []spec.GenSpec{
			{Kind: spec.KindSequential, Base: 0, Beats: 8, Count: 12_000, Gap: 2, WrapBytes: 0x40000},
			{Kind: spec.KindStream, Base: 0x80000, Beats: 4, Period: 40, Count: 6_000, WrapBytes: 0x20000},
		},
	}
}

// sweepRequest is the 64-variant grid the drill streams and analyzes.
func sweepRequest() service.SweepRequest {
	base := chaosBase()
	return service.SweepRequest{
		Base: &base, Name: "chaos/grid", Model: "rtl",
		Axes: []service.SweepAxis{
			{Param: "write_buffer_depth", Values: []any{0, 2, 4, 8}},
			{Param: "bi_enabled", Values: []any{true, false}},
			{Param: "closed_page", Values: []any{true, false}},
			{Param: "filters", Values: []any{"all", "rr-only"}},
			{Param: "pipelining", Values: []any{true, false}},
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

// waitShard polls the cluster healthz until cond accepts the shard's
// entry (30s budget).
func waitShard(front string, i int, what string, cond func(shard.ShardHealth) bool) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := drill.Health(front)
		if err == nil && len(h.Shards) > i && cond(h.Shards[i]) {
			return
		}
		if time.Now().After(deadline) {
			d.Failf("shard %d never reached %s: %+v (err %v)", i, what, h, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func main() {
	d = drill.New("chaos_service")
	defer d.Close()

	// 1. The fault-free reference analysis, computed in-process.
	_, refURL, _ := d.Server(service.Options{Workers: 4, StoreDir: filepath.Join(d.Tmp, "ref")})
	refDoc, refBody := d.Analyze(refURL, analyzeRequest())
	if refDoc.Incomplete || refDoc.Analyzed != 64 || refDoc.Best == nil {
		d.Failf("fault-free reference implausible: %s", refBody)
	}
	fmt.Printf("fault-free reference: 64 variants analyzed, best %s=%g at %s\n",
		refDoc.Metric, refDoc.Best.Value, refDoc.Best.Name)

	// The cluster: three real worker processes under the supervisor,
	// behind an in-process router. A tight respawn budget with a huge
	// StableUptime makes the crash-loop drill deterministic: every
	// kill in this drill counts as part of one consecutive campaign.
	dir := filepath.Join(d.Tmp, "cluster")
	sup, front := d.Cluster(3, func(i int) []string {
		return []string{"-workers", "1", "-store", filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
	}, shard.SpawnOptions{
		RespawnBase:     250 * time.Millisecond,
		RespawnMax:      time.Second,
		RespawnAttempts: 3,
		StableUptime:    time.Hour,
	}, shard.Options{
		BreakerThreshold: 2,
		BreakerInterval:  200 * time.Millisecond,
	})

	// Local routing table: owner and full rendezvous rank per variant,
	// from the same wire request the router expands.
	variants, err := service.ExpandSweepRequest(sweepRequest(), nil, 0)
	if err != nil {
		d.Failf("expanding grid locally: %v", err)
	}
	if len(variants) != 64 {
		d.Failf("grid expanded to %d variants, want 64 — adjust the axes", len(variants))
	}
	owners := map[string]int{}
	ranks := map[string][]int{}
	perShard := []int{0, 0, 0}
	ids := []int{0, 1, 2} // the boot-time shard IDs
	for _, v := range variants {
		owners[v.Hash] = shard.OwnerID(v.Hash, ids)
		ranks[v.Hash] = shard.RankIDs(v.Hash, ids)
		perShard[owners[v.Hash]]++
	}
	if perShard[0] == 0 || perShard[1] == 0 || perShard[2] == 0 {
		d.Failf("degenerate 3-way partition %v", perShard)
	}

	// 2. SIGKILL the busiest shard mid-sweep; failover must keep the
	// stream error-free.
	victim := 0
	for i, n := range perShard {
		if n > perShard[victim] {
			victim = i
		}
	}
	victimPid := sup.Procs()[victim].Pid
	fmt.Printf("cold 64-variant RTL sweep (split %v); killing shard %d (pid %d) after its first row\n",
		perShard, victim, victimPid)
	killed := false
	rows, summary, sweepHdr := d.Sweep(front+"/sweep", sweepRequest(), func(r shard.Row) bool {
		if !killed && r.Shard == victim && r.Error == "" {
			syscall.Kill(victimPid, syscall.SIGKILL)
			killed = true
			fmt.Printf("  killed shard %d after row %s\n", victim, r.Name)
		}
		return true
	})
	if !killed {
		d.Failf("victim shard produced no successful row to trigger on")
	}
	if len(rows) != 64 || summary.Errors != 0 {
		d.Failf("kill sweep: %d rows, %d summary errors — want 64 rows, zero errors", len(rows), summary.Errors)
	}
	byHash := map[string][]byte{}
	failovers, stolen := 0, 0
	for _, r := range rows {
		if r.Error != "" {
			d.Failf("error row %s under single-shard loss: %s", r.Name, r.Error)
		}
		byHash[r.Hash] = r.Result
		if r.Stolen != "" {
			// Work-stealing legitimately serves a row away from its
			// owner — but the tag must be consistent: owner->thief with
			// the thief the serving shard and the owner the rendezvous
			// owner.
			stolen++
			var o, th int
			if _, err := fmt.Sscanf(r.Stolen, "%d->%d", &o, &th); err != nil ||
				o == th || th != r.Shard || o != owners[r.Hash] {
				d.Failf("row %s stolen tag %q inconsistent (served by %d, owner %d)",
					r.Name, r.Stolen, r.Shard, owners[r.Hash])
			}
			continue
		}
		if r.Failover == "" {
			if r.Shard != owners[r.Hash] {
				d.Failf("row %s on shard %d without a failover tag, owner %d", r.Name, r.Shard, owners[r.Hash])
			}
			continue
		}
		failovers++
		// The failover target is not arbitrary: it is the next LIVE
		// shard in the variant's own rendezvous rank order.
		next := -1
		for _, idx := range ranks[r.Hash] {
			if idx != victim {
				next = idx
				break
			}
		}
		if owners[r.Hash] != victim || r.Shard != next {
			d.Failf("failover row %s owner %d served by shard %d, want next-ranked live shard %d", r.Name, owners[r.Hash], r.Shard, next)
		}
		if want := fmt.Sprintf("%d->%d", victim, next); r.Failover != want {
			d.Failf("row %s failover %q, want %q", r.Name, r.Failover, want)
		}
	}
	if failovers == 0 {
		d.Failf("no row failed over — the kill never bit")
	}
	fmt.Printf("  64 rows, 0 errors, %d failover rows, %d stolen rows, truthful summary\n", failovers, stolen)

	// 3. After the supervisor revives the victim, the analysis must
	// reproduce the fault-free reference byte-for-byte.
	waitShard(front, victim, "respawned with a closed breaker", func(sh shard.ShardHealth) bool {
		return sh.OK && sh.Proc != nil && sh.Proc.State == shard.ProcRunning &&
			sh.Proc.Pid != victimPid && sh.Breaker != "open"
	})
	doc, body := d.Analyze(front, analyzeRequest())
	if doc.Incomplete || doc.Analyzed != 64 {
		d.Failf("post-respawn analysis degraded: %s", body)
	}
	if !bytes.Equal(body, refBody) {
		d.Failf("post-respawn analysis differs from the fault-free reference:\n%s\n%s", body, refBody)
	}
	fmt.Printf("victim respawned; analysis byte-identical to the fault-free reference\n")

	// 3b. The sweep manifest survived the SIGKILL atomically. The
	// checkpoint write is tmp+rename, so the kill mid-sweep can have
	// lost the victim's last checkpoint but can never have torn the
	// manifest: GET /sweep/{id} must parse cleanly and report the
	// sweep complete, a resume must replay the tail with zero error
	// rows, and the post-hoc stored analyze must reproduce the
	// fault-free reference byte for byte without re-simulating.
	sweepID := sweepHdr.Get(service.SweepIDHeader)
	if sweepID == "" {
		d.Failf("round-2 sweep carried no %s header", service.SweepIDHeader)
	}
	status, _, stBody := d.Get(front + "/sweep/" + sweepID)
	if status != http.StatusOK {
		d.Failf("manifest status %d after SIGKILL: %s", status, stBody)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(stBody, &st); err != nil {
		d.Failf("manifest TORN after SIGKILL — status body does not parse: %v\n%s", err, stBody)
	}
	if !st.Complete || st.Total != 64 || st.DoneCount != 64 || st.FailedCount != 0 {
		d.Failf("manifest after SIGKILL: total %d done %d failed %d complete %v, want complete 64",
			st.Total, st.DoneCount, st.FailedCount, st.Complete)
	}
	resumed, rsum, _ := d.Sweep(front+"/sweep/"+sweepID+"/resume?after=31", nil, nil)
	for _, r := range resumed {
		if r.Error != "" {
			d.Failf("resume error row %s: %s", r.Name, r.Error)
		}
		if r.Index <= 31 {
			d.Failf("resume replayed index %d <= 31", r.Index)
		}
	}
	if len(resumed) != 32 || rsum.Errors != 0 {
		d.Failf("resume after SIGKILL: %d rows errors=%d, want 32 clean rows", len(resumed), rsum.Errors)
	}
	status, _, storedBody := d.Post(front+"/sweep/"+sweepID+"/analyze", analyzeRequest().Request)
	if status != http.StatusOK {
		d.Failf("stored analyze status %d: %s", status, storedBody)
	}
	if !bytes.Equal(storedBody, refBody) {
		d.Failf("stored analyze differs from the fault-free reference:\n%s\n%s", storedBody, refBody)
	}
	fmt.Printf("manifest survived the SIGKILL atomically: status complete, resume clean (32 rows), stored analyze byte-identical\n")

	// 4. Crash-loop a different shard until the supervisor gives up.
	crash := (victim + 1) % 3
	fmt.Printf("crash-looping shard %d (SIGKILL every revival, budget 3)\n", crash)
	crashDeadline := time.Now().Add(30 * time.Second)
	for {
		st := sup.Status()[crash]
		if st.State == shard.ProcDead {
			break
		}
		if st.State == shard.ProcRunning && st.Pid != 0 {
			syscall.Kill(st.Pid, syscall.SIGKILL)
		}
		if time.Now().After(crashDeadline) {
			d.Failf("shard %d never exhausted its respawn budget: %+v", crash, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := sup.Status()[crash]; st.Respawns != 3 {
		d.Failf("shard %d dead after %d respawns, want the full budget of 3", crash, st.Respawns)
	}
	// healthz tells the truth: the shard is dead, the cluster is
	// degraded — and the cluster still serves everything.
	waitShard(front, crash, "reported dead", func(sh shard.ShardHealth) bool {
		return sh.Proc != nil && sh.Proc.State == shard.ProcDead
	})
	if h, err := drill.Health(front); err != nil || h.OK {
		d.Failf("cluster healthz ok=%v (err %v) with shard %d dead", h.OK, err, crash)
	}
	var crashOwned *spec.Spec
	for _, v := range variants {
		if owners[v.Hash] == crash {
			sp := v.Spec
			crashOwned = &sp
			break
		}
	}
	status, runHdr, runBody := d.Post(front+"/run", map[string]any{"spec": crashOwned, "model": "rtl"})
	if status != http.StatusOK {
		d.Failf("dead-owned /run: %d %s", status, runBody)
	}
	if fo := runHdr.Get("X-Failover"); !strings.HasPrefix(fo, fmt.Sprintf("%d->", crash)) {
		d.Failf("dead-owned /run X-Failover %q, want a path out of shard %d", fo, crash)
	}
	doc, body = d.Analyze(front, analyzeRequest())
	if doc.Incomplete || doc.Analyzed != 64 {
		d.Failf("analysis with a permanently dead shard degraded: %s", body)
	}
	if !bytes.Equal(body, refBody) {
		d.Failf("dead-shard analysis differs from the fault-free reference:\n%s\n%s", body, refBody)
	}
	fmt.Printf("shard %d dead after exhausting its budget; healthz truthful; /run fails over (X-Failover %s); analysis still byte-identical\n",
		crash, runHdr.Get("X-Failover"))

	// 5. Corrupt the first victim's store on disk, kill it once more,
	// and require the revived worker to confess the damage — then
	// serve the same bytes as ever.
	storeDir := filepath.Join(dir, fmt.Sprintf("shard-%d", victim))
	damaged, err := chaos.CorruptResults(storeDir, 4)
	if err != nil || damaged != 4 {
		d.Failf("corrupting %s: damaged %d (err %v), want 4", storeDir, damaged, err)
	}
	pid := sup.Procs()[victim].Pid
	syscall.Kill(pid, syscall.SIGKILL)
	waitShard(front, victim, "respawned after corruption", func(sh shard.ShardHealth) bool {
		return sh.OK && sh.Proc != nil && sh.Proc.State == shard.ProcRunning &&
			sh.Proc.Pid != pid && sh.Breaker != "open"
	})
	waitShard(front, victim, "reporting corrupt_at_open", func(sh shard.ShardHealth) bool {
		return sh.Health != nil && sh.Health.Store != nil && sh.Health.Store.CorruptAtOpen == 4
	})
	fmt.Printf("shard %d revived over a corrupted store: healthz reports corrupt_at_open=4 (deleted at open)\n", victim)

	final, finalSummary, _ := d.Sweep(front+"/sweep", sweepRequest(), nil)
	if len(final) != 64 || finalSummary.Errors != 0 {
		d.Failf("final sweep: %d rows, %d errors", len(final), finalSummary.Errors)
	}
	for _, r := range final {
		if !bytes.Equal(r.Result, byHash[r.Hash]) {
			d.Failf("final row %s differs from round 2 — corruption or failover changed the bytes", r.Name)
		}
		if r.Stolen != "" {
			var o, th int
			if _, err := fmt.Sscanf(r.Stolen, "%d->%d", &o, &th); err != nil ||
				o == th || th != r.Shard || o != owners[r.Hash] || th == crash {
				d.Failf("final row %s stolen tag %q inconsistent (served by %d, owner %d, dead %d)",
					r.Name, r.Stolen, r.Shard, owners[r.Hash], crash)
			}
			continue
		}
		if owners[r.Hash] == crash {
			if r.Failover == "" || r.Shard == crash {
				d.Failf("row %s owned by dead shard %d served without failover (shard %d)", r.Name, crash, r.Shard)
			}
		} else if r.Failover != "" || r.Shard != owners[r.Hash] {
			d.Failf("row %s on shard %d (failover %q), owner %d alive", r.Name, r.Shard, r.Failover, owners[r.Hash])
		}
	}
	fmt.Printf("final sweep over the degraded cluster: 64 rows, 0 errors, byte-identical\n")

	// 6. The router's metrics must have recorded the whole campaign in
	// monotonic counters — the drill gates on trips and failovers, NOT
	// on the instantaneous breaker-state gauge, which races against the
	// supervisor's fast respawns. The dead shard's own series are
	// absent from the aggregated scrape (nothing answers), and
	// simd_shard_up says so explicitly.
	fams := d.Metrics(front)
	if n := d.SumCounter(fams, "simd_router_failovers_total"); n == 0 {
		d.Failf("simd_router_failovers_total is zero after the kill drills")
	}
	if n := d.SumCounter(fams, "simd_router_breaker_opens_total"); n == 0 {
		d.Failf("simd_router_breaker_opens_total is zero — dead shards never tripped a breaker")
	}
	if n := d.SumCounter(fams, "simd_router_shard_restarts_total"); n < 4 {
		d.Failf("restart counter %d, want >= 4 (1 kill + 3 crash-loop respawns)", n)
	}
	if v := obs.Find(fams, "simd_shard_up", "shard", strconv.Itoa(crash)); len(v) != 1 || v[0] != "0" {
		d.Failf("dead shard %d not reported down by simd_shard_up: %v", crash, v)
	}
	if v := obs.Find(fams, "simd_shard_up", "shard", strconv.Itoa(victim)); len(v) != 1 || v[0] != "1" {
		d.Failf("revived shard %d not scrapeable: %v", victim, v)
	}
	fmt.Printf("metrics truthful: failovers=%d breaker_opens=%d restarts=%d, dead shard down in simd_shard_up\n",
		d.SumCounter(fams, "simd_router_failovers_total"),
		d.SumCounter(fams, "simd_router_breaker_opens_total"),
		d.SumCounter(fams, "simd_router_shard_restarts_total"))

	fmt.Println("chaos smoke OK: kill mid-sweep, crash loop to give-up, and store corruption all absorbed — zero error rows, byte-identical analyses, truthful healthz and metrics")
}
