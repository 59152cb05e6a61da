package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

func TestRouterIgnoresBackendManifestBeyondMaxVariants(t *testing.T) {
	// A backend answering GET /sweep/{id} with a total past the engine's
	// bound must be treated like a corrupt copy: the router would
	// otherwise size two bitmaps from an untrusted number.
	id := strings.Repeat("cd", 32)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/sweep/"+id {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"version":1,"id":%q,"request":{"scenario":"seq/read-dominant","axes":[]},"total":%d}`, id, sweep.MaxVariants+1)
	}))
	t.Cleanup(backend.Close)
	rt, err := New(Options{Backends: []string{backend.URL}, SweepConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	if status, _, body := get(t, front.URL+"/sweep/"+id); status != http.StatusNotFound {
		t.Fatalf("status: %d %.200s", status, body)
	}
	if status, _, body := get(t, front.URL+"/sweep/"+id+"/resume?after=0"); status != http.StatusNotFound {
		t.Fatalf("resume: %d %.200s", status, body)
	}
	if status, _, body := post(t, front.URL+"/sweep/"+id+"/analyze", map[string]any{"metric": "cycles"}); status != http.StatusNotFound {
		t.Fatalf("stored analyze: %d %.200s", status, body)
	}
}

func TestRouterSweepDisconnectThenResumeMatchesUninterruptedRun(t *testing.T) {
	// A client hangs up on a cluster sweep mid-grid and finishes it with
	// resume?after=<its contiguous high-water mark>. The rows it holds
	// afterwards must be exactly an uninterrupted run's, index by index.
	// Until the disconnect, every backend /run takes 20ms, so the grid
	// reliably outlasts the rows the client reads.
	var slow atomic.Bool
	slow.Store(true)
	urls := make([]string, 2)
	for i := range urls {
		srv, err := service.New(service.Options{Workers: 1, Queue: 64})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" && slow.Load() {
				select {
				case <-time.After(20 * time.Millisecond):
				case <-r.Context().Done():
					return
				}
			}
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls[i] = ts.URL
	}
	rt, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	req := stealGrid(81)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/sweep", strings.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get(service.SweepIDHeader)
	got := map[int]Row{}
	dec := json.NewDecoder(resp.Body)
	for len(got) < 4 {
		var row Row
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("row %d: %v", len(got), err)
		}
		if row.Name == "" {
			t.Fatalf("stream ended after %d rows; the grid was meant to outlast the disconnect", len(got))
		}
		got[row.Index] = row
	}
	cancel()
	resp.Body.Close()
	slow.Store(false)

	// The contiguous high-water mark a real client resumes from.
	after := -1
	for {
		if _, ok := got[after+1]; !ok {
			break
		}
		after++
	}
	// The router checkpoints once more after the disconnect; resume
	// needs that manifest, so wait for it to land.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, body := get(t, front.URL+"/sweep/"+id)
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no manifest after the disconnect: %d %s", status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(fmt.Sprintf("%s/sweep/%s/resume?after=%d", front.URL, id, after))
	if err != nil {
		t.Fatal(err)
	}
	resumed, _, done := readRouterStream(t, resp)
	if !done {
		t.Fatal("resume ended without a terminal summary")
	}
	for _, row := range resumed {
		if row.Index <= after {
			t.Fatalf("resume after %d streamed row %d", after, row.Index)
		}
		if prev, ok := got[row.Index]; ok && !bytes.Equal(prev.Result, row.Result) {
			t.Fatalf("row %d differs between the first stream and the resume", row.Index)
		}
		got[row.Index] = row
	}

	_, refTS := newBackend(t, service.Options{Workers: 2, Queue: 64})
	_, want, _, wantDone := readSweep(t, refTS.URL, req)
	if !wantDone || len(got) != len(want) {
		t.Fatalf("union holds %d rows, uninterrupted run %d (done=%v)", len(got), len(want), wantDone)
	}
	for _, w := range want {
		g, ok := got[w.Index]
		if !ok {
			t.Fatalf("row %d missing from the union", w.Index)
		}
		if g.Error != "" || g.Hash != w.Hash || g.Name != w.Name || !bytes.Equal(g.Result, w.Result) {
			t.Fatalf("row %d differs from the uninterrupted run (error %q):\n%s\n%s", w.Index, g.Error, g.Result, w.Result)
		}
	}
}
