package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/service"
)

// TestRouterTurnsInvalidBackendBodiesIntoErrorRows: a backend that
// answers 200 with a body that is not JSON must not make rows vanish
// from a sweep while the summary and manifest count them as done. Each
// such row streams as an error row, the manifest marks it failed, and
// the body never enters the router cache.
func TestRouterTurnsInvalidBackendBodiesIntoErrorRows(t *testing.T) {
	var runs atomic.Int64
	var mu sync.Mutex
	var checkpoint []byte
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/run":
			runs.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "miss")
			io.WriteString(w, "<html>")
		case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/sweep/"):
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			checkpoint = body
			mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(backend.Close)
	rt, err := New(Options{Backends: []string{backend.URL}, SweepConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	for pass := 0; pass < 2; pass++ {
		before := runs.Load()
		_, rows, sum, done := readSweep(t, front.URL, gridRequest(7))
		if !done || len(rows) != 8 || sum.Rows != 8 || sum.Errors != 8 {
			t.Fatalf("pass %d: %d rows, summary %+v (done %v); want 8 error rows", pass, len(rows), sum, done)
		}
		for _, row := range rows {
			if row.Result != nil || !strings.Contains(row.Error, "not a one-line JSON result") {
				t.Fatalf("pass %d: row %+v", pass, row)
			}
		}
		// Nothing was cached: the second pass asks the backend again.
		if got := runs.Load() - before; got != 8 {
			t.Fatalf("pass %d: %d backend calls, want 8", pass, got)
		}
	}
	mu.Lock()
	var m service.SweepManifest
	err = json.Unmarshal(checkpoint, &m)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if m.Done.Count() != 0 || m.Failed.Count() != 8 {
		t.Fatalf("manifest done %d failed %d, want 0 and 8", m.Done.Count(), m.Failed.Count())
	}

	// /run relays the backend's answer as it is, but never caches it.
	for i := 0; i < 2; i++ {
		status, hdr, body := post(t, front.URL+"/run", map[string]any{"spec": testSpec(7), "model": "tl"})
		if status != http.StatusOK || string(body) != "<html>" || hdr.Get("X-Cache") == routerHit {
			t.Fatalf("/run %d: %d %s X-Cache %q", i, status, body, hdr.Get("X-Cache"))
		}
	}
}

// TestRowAppendJSONMatchesEncoder: the router's row appender writes
// exactly the bytes json.Encoder would, for result rows, failover and
// stolen rows, error rows and grid build-error rows (shard -1).
func TestRowAppendJSONMatchesEncoder(t *testing.T) {
	result := json.RawMessage(`{"hash":"ab","cycles":5293822,"name":"x\u003cy"}`)
	params := map[string]any{"write_buffer_depth": float64(8), "mix": "seq/read-dominant", "bi_enabled": true,
		"urgency_threshold": 5.293822e+06}
	base := service.SweepRow{Index: 7, Name: "grid/<a&b>/é", Hash: strings.Repeat("ab", 32), Params: params}
	withResult := base
	withResult.Cache, withResult.Result = "miss", result
	withError := base
	withError.Error = `shard 1 "refused" <all>`
	rows := []Row{
		{SweepRow: withResult, Shard: 1},
		{SweepRow: withResult, Shard: 0, Failover: "1->0"},
		{SweepRow: withResult, Shard: 2, Stolen: "0->2"},
		{SweepRow: withError, Shard: 1},
		{SweepRow: service.SweepRow{Index: 3, Name: base.Name, Params: params, Error: "sweep: build failed"}, Shard: -1},
	}
	for i, row := range rows {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(row); err != nil {
			t.Fatal(err)
		}
		got, err := row.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("row %d:\n got  %s\n want %s", i, got, want.Bytes())
		}
	}
}
