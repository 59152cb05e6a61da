// Big-sweep drill: a 4-shard cluster completes a 10,000-variant RTL
// sweep through the checkpointed-sweep protocol while the drill
// throws the two faults the protocol exists for — a client that
// disconnects mid-stream and a worker SIGKILLed mid-sweep — and
// proves the promises hold:
//
//  1. an in-process single server computes the fault-free reference:
//     POST /sweep/analyze over the full grid, the byte-exact document
//     every later analysis must reproduce;
//
//  2. the cluster (4 real simd workers under the supervisor, one
//     deliberately slow with -workers 1 so work-stealing must kick
//     in) streams the same grid via POST /sweep. The client SIGKILLs
//     one shard after 1,000 rows, then hangs up after ~30% of the
//     stream, noting the X-Sweep-ID and its contiguous high-water
//     mark P;
//
//  3. GET /sweep/{id}/resume?after=P replays the rest: the union of
//     the two streams must be EXACTLY the grid — every index once,
//     no duplicates, no gaps, zero error rows — with overlapping
//     rows byte-identical;
//
//  4. at least one row was work-stolen (tagged owner->thief), and
//     stolen envelopes landed in the OWNER's store byte-identically
//     — a direct /run against the owner answers from cache with the
//     streamed bytes;
//
//  5. GET /sweep/{id} reports the sweep complete, and the post-hoc
//     POST /sweep/{id}/analyze — zero re-simulation — answers
//     byte-identical to the fault-free reference document.
//
//     go run ./examples/bigsweep_service [-simd PATH]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the big-sweep smoke; it exits nonzero on any violation.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/config"
	"repro/internal/drill"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/sweep"
)

const (
	totalVariants = 10_000
	killAfterRows = 1_000
	hangUpAfter   = 3_000
)

// d is the running drill.
var d *drill.Drill

// bigBase is deliberately tiny — two short generators on the 2-master
// platform — so ten thousand RTL simulations stay a smoke test, not a
// benchmark.
func bigBase() spec.Spec {
	return spec.Spec{
		SpecVersion: spec.Version,
		Name:        "bigsweep/base",
		Params:      config.Default(2),
		Masters: []spec.GenSpec{
			{Kind: spec.KindSequential, Base: 0, Beats: 2, Count: 4, Gap: 1},
			{Kind: spec.KindStream, Base: 0x80000, Beats: 2, Period: 8, Count: 2},
		},
	}
}

// sweepRequest is the 25 x 20 x 20 = 10,000-variant grid; every
// value produces a distinct workload, so dedup collapses nothing and
// the variant count IS the Cartesian product.
func sweepRequest() service.SweepRequest {
	ints := func(n, from int) []any {
		vals := make([]any, n)
		for i := range vals {
			vals[i] = from + i
		}
		return vals
	}
	base := bigBase()
	return service.SweepRequest{
		Base: &base, Name: "bigsweep/grid", Model: "rtl",
		Axes: []service.SweepAxis{
			{Param: "urgency_threshold", Values: ints(25, 0)},
			{Param: "count", Values: ints(20, 1)},
			{Param: "write_buffer_depth", Values: ints(20, 0)},
		},
	}
}

func analyzeSelector() agg.Request {
	return agg.Request{
		Metric: "cycles", TopK: 5,
		Frontier: &agg.FrontierSpec{X: "cycles", Y: "throughput", YObjective: agg.ObjectiveMax},
	}
}

// sweepStatus reads GET /sweep/{id} and returns the HTTP status and
// the decoded status (zero unless 200).
func sweepStatus(url, id string) (int, service.SweepStatus) {
	status, _, body := d.Get(url + "/sweep/" + id)
	var st service.SweepStatus
	if status == http.StatusOK && json.Unmarshal(body, &st) != nil {
		d.Failf("status body does not parse: %s", body)
	}
	return status, st
}

func main() {
	d = drill.New("bigsweep_service")
	defer d.Close()

	// 1. Fault-free reference, in-process. Every tier derives the sweep
	// ID from the request alone; the cluster must stream under it.
	_, refURL, _ := d.Server(service.Options{Workers: 8, StoreDir: filepath.Join(d.Tmp, "ref")})
	start := time.Now()
	refDoc, refBody := d.Analyze(refURL, service.AnalyzeRequest{SweepRequest: sweepRequest(), Request: analyzeSelector()})
	refID, err := service.SweepID(sweepRequest(), nil)
	if err != nil {
		d.Failf("sweep id: %v", err)
	}
	if refDoc.Incomplete || refDoc.Analyzed != totalVariants || refDoc.Best == nil {
		d.Failf("reference implausible (analyzed %d, incomplete %v)", refDoc.Analyzed, refDoc.Incomplete)
	}
	fmt.Printf("fault-free reference: %d variants analyzed in %v, sweep id %s\n",
		refDoc.Analyzed, time.Since(start).Round(time.Millisecond), refID[:12])

	// The cluster: 4 real workers, shard 0 crippled to one worker so
	// its queue backs up and the others must steal from it.
	dir := filepath.Join(d.Tmp, "cluster")
	sup, front := d.Cluster(4, func(i int) []string {
		workers := "3"
		if i == 0 {
			workers = "1"
		}
		return []string{"-workers", workers, "-store", filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
	}, shard.SpawnOptions{}, shard.Options{})

	// Local routing table: variant spec and owner by grid index, from
	// the same wire request the router expands.
	variants, err := service.ExpandSweepRequest(sweepRequest(), nil, 0)
	if err != nil {
		d.Failf("expanding grid locally: %v", err)
	}
	if len(variants) != totalVariants {
		d.Failf("grid expanded to %d variants, want %d — adjust the axes", len(variants), totalVariants)
	}
	byIndex := make(map[int]sweep.Variant, len(variants))
	perShard := make([]int, 4)
	for _, v := range variants {
		byIndex[v.Index] = v
		perShard[shard.OwnerID(v.Hash, []int{0, 1, 2, 3})]++
	}
	// The SIGKILL victim: the busiest shard that is NOT the slow one
	// (stolen write-backs to shard 0 must survive to be checked).
	victim := 1
	for i := 2; i < 4; i++ {
		if perShard[i] > perShard[victim] {
			victim = i
		}
	}

	// 2. Stream the grid; SIGKILL the victim after 1,000 rows; hang up
	// after 3,000.
	start = time.Now()
	victimPid := sup.Procs()[victim].Pid
	firstRows := map[int]shard.Row{}
	killed := false
	_, _, hdr := d.Sweep(front+"/sweep", sweepRequest(), func(row shard.Row) bool {
		if row.Error != "" {
			d.Failf("error row %d during the first stream: %s", row.Index, row.Error)
		}
		if _, dup := firstRows[row.Index]; dup {
			d.Failf("index %d streamed twice in one stream", row.Index)
		}
		firstRows[row.Index] = row
		if !killed && len(firstRows) >= killAfterRows {
			syscall.Kill(victimPid, syscall.SIGKILL)
			killed = true
			fmt.Printf("killed shard %d (pid %d, owns %d variants) after %d rows\n",
				victim, victimPid, perShard[victim], len(firstRows))
		}
		return len(firstRows) < hangUpAfter // false: the client disconnect
	})
	if !killed || len(firstRows) < hangUpAfter {
		d.Failf("stream completed after %d rows (killed=%v) — the drill hung up too late to matter", len(firstRows), killed)
	}
	id := hdr.Get(service.SweepIDHeader)
	if id != refID {
		d.Failf("cluster sweep id %q != reference id %q — tiers disagree on sweep identity", id, refID)
	}
	if v := hdr.Get("X-Sweep-Variants"); v != fmt.Sprint(totalVariants) {
		d.Failf("X-Sweep-Variants %q, want %d", v, totalVariants)
	}

	// P: the contiguous high-water mark a real client would resume from.
	p := -1
	for firstRows[p+1].Hash != "" || firstRows[p+1].Error != "" {
		p++
	}
	if p < 0 {
		d.Failf("no contiguous prefix in %d rows", len(firstRows))
	}
	fmt.Printf("hung up after %d rows (%v); contiguous prefix P=%d\n",
		len(firstRows), time.Since(start).Round(time.Millisecond), p)

	// The router's abort-path checkpoint races our next request; wait
	// for the manifest to become visible.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status, _ := sweepStatus(front, id); status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			d.Failf("manifest for %s never became visible after the disconnect", id)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// 3. Resume past P and drain to the terminal summary.
	start = time.Now()
	resumeRows := map[int]shard.Row{}
	_, summary, _ := d.Sweep(fmt.Sprintf("%s/sweep/%s/resume?after=%d", front, id, p), nil, func(row shard.Row) bool {
		if row.Error != "" {
			d.Failf("error row %d during resume: %s", row.Index, row.Error)
		}
		if row.Index <= p {
			d.Failf("resume replayed index %d <= P=%d", row.Index, p)
		}
		if _, dup := resumeRows[row.Index]; dup {
			d.Failf("index %d streamed twice in the resume", row.Index)
		}
		resumeRows[row.Index] = row
		return true
	})
	if summary.Errors != 0 {
		d.Failf("resume summary %+v vs %d rows", summary, len(resumeRows))
	}
	fmt.Printf("resume streamed %d rows in %v with a truthful terminal summary\n",
		len(resumeRows), time.Since(start).Round(time.Millisecond))

	// Union check: indices <= P from the first stream plus the resume
	// must be exactly the grid; overlapping rows byte-identical.
	union := make(map[int][]byte, totalVariants)
	for idx, row := range firstRows {
		if idx <= p {
			union[idx] = row.Result
		}
	}
	overlap := 0
	for idx, row := range resumeRows {
		if first, ok := firstRows[idx]; ok {
			overlap++
			if !bytes.Equal(first.Result, row.Result) {
				d.Failf("index %d differs between the first stream and the resume", idx)
			}
		}
		if _, dup := union[idx]; dup {
			d.Failf("index %d covered twice in the union", idx)
		}
		union[idx] = row.Result
	}
	if len(union) != totalVariants {
		d.Failf("union covers %d of %d variants — gaps in the resumed sweep", len(union), totalVariants)
	}
	for i := 0; i < totalVariants; i++ {
		if _, ok := union[i]; !ok {
			d.Failf("index %d missing from the union", i)
		}
		want := byIndex[i]
		if got := firstRows[i].Hash; got != "" && got != want.Hash {
			d.Failf("index %d hash %s, locally expanded %s", i, got, want.Hash)
		}
	}
	fmt.Printf("union exact: %d indices, no gaps, no duplicates, %d overlapping rows byte-identical\n",
		totalVariants, overlap)

	// 4. Work-stealing: the concurrency skew must have produced stolen
	// rows, and their envelopes must sit in the owner's store.
	checkRows := func(rows map[int]shard.Row) (stolen int) {
		checked := 0
		for _, row := range rows {
			if row.Stolen == "" {
				continue
			}
			stolen++
			var owner, thief int
			if _, err := fmt.Sscanf(row.Stolen, "%d->%d", &owner, &thief); err != nil ||
				owner == thief || owner < 0 || owner > 3 || thief < 0 || thief > 3 {
				d.Failf("malformed stolen tag %q on index %d", row.Stolen, row.Index)
			}
			if row.Shard != thief {
				d.Failf("stolen row %d served by shard %d, tag says thief %d", row.Index, row.Shard, thief)
			}
			if owner == victim || checked >= 5 {
				continue // the victim's store may have died with it
			}
			checked++
			v := byIndex[row.Index]
			status, hdr, body := d.Post(sup.URLs()[owner]+"/run", map[string]any{"spec": v.Spec, "model": "rtl"})
			if status != http.StatusOK {
				d.Failf("owner %d replay status %d: %s", owner, status, body)
			}
			if hdr.Get("X-Cache") != "hit" {
				d.Failf("stolen index %d absent from owner %d's store (X-Cache %q) — write-back lost",
					row.Index, owner, hdr.Get("X-Cache"))
			}
			if !bytes.Equal(body, row.Result) {
				d.Failf("stolen index %d: owner %d's stored envelope differs from the streamed row", row.Index, owner)
			}
		}
		return stolen
	}
	stolen := checkRows(firstRows) + checkRows(resumeRows)
	if stolen == 0 {
		d.Failf("zero stolen rows across both streams — the 3:1 worker skew never forced a steal")
	}
	fmt.Printf("%d rows work-stolen; sampled write-backs present in owner stores byte-identically\n", stolen)

	// 5. The manifest says complete, and the stored analyze reproduces
	// the fault-free reference byte for byte with zero re-simulation.
	status, st := sweepStatus(front, id)
	if status != http.StatusOK || !st.Complete || st.Total != totalVariants || st.Variants != totalVariants ||
		st.DoneCount != totalVariants || st.FailedCount != 0 {
		d.Failf("status %d not complete: total %d variants %d done %d failed %d complete %v",
			status, st.Total, st.Variants, st.DoneCount, st.FailedCount, st.Complete)
	}

	start = time.Now()
	status, hdr, gotBody := d.Post(front+"/sweep/"+id+"/analyze", analyzeSelector())
	if status != http.StatusOK {
		d.Failf("stored analyze status %d: %s", status, gotBody)
	}
	if hdr.Get(service.SweepIDHeader) != id {
		d.Failf("stored analyze id header %q", hdr.Get(service.SweepIDHeader))
	}
	if !bytes.Equal(gotBody, refBody) {
		d.Failf("stored analyze differs from the fault-free reference:\n%.300s\n%.300s", gotBody, refBody)
	}
	fmt.Printf("GET /sweep/{id} complete; stored analyze byte-identical to the fault-free reference (%v, zero re-simulation)\n",
		time.Since(start).Round(time.Millisecond))

	fmt.Println("bigsweep smoke OK: 10k-variant sweep survived a mid-stream SIGKILL and a client disconnect — exact union on resume, work-stealing write-backs placed by ownership, post-hoc analysis byte-identical")
}
