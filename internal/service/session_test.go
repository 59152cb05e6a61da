package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// memManifests is an in-memory manifest store that keeps a decoded
// snapshot of every checkpoint, so tests can read the cadence back.
type memManifests struct {
	mu          sync.Mutex
	stored      map[string][]byte
	checkpoints []SweepManifest
}

func (m *memManifests) load(_ context.Context, id string) (*SweepManifest, bool) {
	m.mu.Lock()
	body, ok := m.stored[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	var man SweepManifest
	if json.Unmarshal(body, &man) != nil || !man.Sanitize(id) {
		return nil, false
	}
	return &man, true
}

func (m *memManifests) checkpoint(man *SweepManifest) {
	body, err := json.Marshal(man)
	if err != nil {
		panic(err)
	}
	var snap SweepManifest
	if err := json.Unmarshal(body, &snap); err != nil {
		panic(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stored[man.ID] = body
	m.checkpoints = append(m.checkpoints, snap)
}

// fakeResolver answers every variant in chunk order with a canned
// result, recording which indices it was asked for. With cancelAfter
// set it cancels the client's context after that many rows, the way a
// client hanging up mid-stream does.
type fakeResolver struct {
	seen        []int
	cancelAfter int
	cancel      context.CancelFunc
	// With waitAfter set, the resolver behaves like one whose next
	// variant is pending after that many rows: it flushes, then blocks
	// until wait is closed.
	waitAfter int
	wait      chan struct{}
	// unencodable names the index whose row carries a parameter JSON
	// cannot encode (-1: none).
	unencodable int
}

func (f *fakeResolver) resolve(ctx context.Context, chunk []sweep.Variant, _ SweepModel, emit func(SweepRow), flush func()) bool {
	for _, v := range chunk {
		if ctx.Err() != nil {
			return false
		}
		if f.waitAfter > 0 && len(f.seen) == f.waitAfter {
			flush()
			<-f.wait
		}
		f.seen = append(f.seen, v.Index)
		row := SweepRow{Index: v.Index, Name: v.Spec.Name, Hash: v.Hash, Params: v.Params, Cache: "hit", Result: json.RawMessage(`{"cycles":1}`)}
		if v.Index == f.unencodable {
			row.Params = map[string]any{"count": math.NaN()}
		}
		emit(row)
		if len(f.seen) == f.cancelAfter {
			f.cancel()
		}
	}
	return ctx.Err() == nil
}

// fakeSession is a worker-shaped session over the fake resolver and
// the in-memory store, routed through a mux so {id} paths resolve.
func fakeSession(res *fakeResolver) (*memManifests, *http.ServeMux) {
	store := &memManifests{stored: map[string][]byte{}}
	reg := obs.NewRegistry()
	same := func(row SweepRow) SweepRow { return row }
	s := &SweepSession[SweepRow]{
		CheckCycleCap: func(spec.Spec) error { return nil },
		Bind:          func(*http.Request) (ChunkResolver[SweepRow], error) { return res.resolve, nil },
		Load:          store.load,
		Checkpoint:    store.checkpoint,
		Row:           same,
		Append:        SweepRow.AppendJSON,
		ErrorRow:      same,
		WriteError: func(w http.ResponseWriter, _ *http.Request, status int, format string, args ...any) {
			http.Error(w, fmt.Sprintf(format, args...), status)
		},
		Rows:    reg.Counter("rows", "rows"),
		Resumes: reg.Counter("resumes", "resumes"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/sweep", s.Sweep)
	mux.HandleFunc("/sweep/{id}/resume", s.Resume)
	return store, mux
}

// countGrid sweeps the per-master transaction count over counts,
// crossed with bi_enabled. A count of 20000 passes the per-value
// pre-flight but makes the masters' address ranges overlap, so those
// grid points are build errors only the walk discovers.
func countGrid(counts ...int) SweepRequest {
	vals := make([]any, len(counts))
	for i, c := range counts {
		vals[i] = c
	}
	base := testSpec(0)
	return SweepRequest{Base: &base, Name: "session", Axes: []SweepAxis{
		{Param: "count", Values: vals},
		{Param: "bi_enabled", Values: []any{true, false}},
	}}
}

// serveSweep runs one request against the session and splits the
// NDJSON body into data rows and the terminal summary, if any.
func serveSweep(t *testing.T, mux *http.ServeMux, r *http.Request) (*httptest.ResponseRecorder, []SweepRow, *SweepSummary) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var rows []SweepRow
	var summary *SweepSummary
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	for sc.Scan() {
		var line sweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if summary != nil {
			t.Fatalf("line after the terminal summary: %s", sc.Text())
		}
		if line.Done {
			summary = &SweepSummary{}
			if err := json.Unmarshal(sc.Bytes(), summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rows = append(rows, line.SweepRow)
	}
	return rec, rows, summary
}

func postSweep(t *testing.T, ctx context.Context, req SweepRequest) *http.Request {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewRequestWithContext(ctx, http.MethodPost, "/sweep", strings.NewReader(string(body)))
}

// buildError reports whether a row is one of countGrid's overlapping
// grid points.
func buildError(row SweepRow) bool { return row.Params["count"] == float64(20000) }

func TestSweepSessionTurnsBuildErrorsIntoRows(t *testing.T) {
	res := &fakeResolver{unencodable: -1}
	store, mux := fakeSession(res)
	_, rows, summary := serveSweep(t, mux, postSweep(t, context.Background(), countGrid(10, 20000, 11)))

	if len(rows) != 6 || summary == nil || summary.Rows != 6 || summary.Errors != 2 {
		t.Fatalf("%d rows, summary %+v; want 6 rows with 2 errors and a terminal summary", len(rows), summary)
	}
	for _, row := range rows {
		if buildError(row) != (row.Error != "") {
			t.Fatalf("row %d (params %v) error %q", row.Index, row.Params, row.Error)
		}
		if buildError(row) && (row.Cache != "" || row.Result != nil || !strings.Contains(row.Error, "overlapping")) {
			t.Fatalf("build-error row %+v", row)
		}
	}
	if len(res.seen) != 4 {
		t.Fatalf("resolver asked for %v; build errors must never reach it", res.seen)
	}
	if len(store.checkpoints) != 1 {
		t.Fatalf("%d checkpoints for a 6-row sweep, want only the final one", len(store.checkpoints))
	}
	final := store.checkpoints[0]
	if final.Variants != 4 || final.Done.Count() != 4 || final.Failed.Count() != 2 {
		t.Fatalf("final manifest variants %d done %d failed %d, want 4/4/2", final.Variants, final.Done.Count(), final.Failed.Count())
	}
	for _, row := range rows {
		if final.Failed.Get(row.Index) != (row.Error != "") || final.Done.Get(row.Index) == (row.Error != "") {
			t.Fatalf("manifest bits for row %d disagree with its error %q", row.Index, row.Error)
		}
	}
}

func TestSweepSessionResumeSkipsAtOrBelowAfter(t *testing.T) {
	res := &fakeResolver{unencodable: -1}
	_, mux := fakeSession(res)
	rec, full, _ := serveSweep(t, mux, postSweep(t, context.Background(), countGrid(10, 20000, 11)))
	id := rec.Header().Get(SweepIDHeader)

	res.seen = nil
	const after = 2
	_, rows, summary := serveSweep(t, mux, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/sweep/%s/resume?after=%d", id, after), nil))
	want := 0
	for _, row := range full {
		if row.Index > after {
			want++
		}
	}
	if len(rows) != want || summary == nil || summary.Rows != want {
		t.Fatalf("resume after %d: %d rows, summary %+v; want %d rows and a summary", after, len(rows), summary, want)
	}
	for _, row := range rows {
		if row.Index <= after {
			t.Fatalf("resume after %d streamed row %d", after, row.Index)
		}
	}
	for _, idx := range res.seen {
		if idx <= after {
			t.Fatalf("resume after %d resolved variant %d", after, idx)
		}
	}
}

// counts returns n distinct transaction counts starting at 10.
func counts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 10 + i
	}
	return out
}

func TestSweepSessionCheckpointsEveryManifestCheckpointRows(t *testing.T) {
	res := &fakeResolver{unencodable: -1}
	store, mux := fakeSession(res)
	_, rows, summary := serveSweep(t, mux, postSweep(t, context.Background(), countGrid(counts(300)...)))
	if len(rows) != 600 || summary == nil {
		t.Fatalf("%d rows, summary %v", len(rows), summary)
	}
	var done []int
	for _, cp := range store.checkpoints {
		done = append(done, cp.Done.Count())
	}
	if fmt.Sprint(done) != fmt.Sprint([]int{manifestCheckpointRows, 2 * manifestCheckpointRows, 600}) {
		t.Fatalf("checkpoints at done counts %v", done)
	}
	if v := store.checkpoints[1].Variants; v != 0 {
		t.Fatalf("mid-stream checkpoint claims %d variants before the walk completed", v)
	}
	if v := store.checkpoints[2].Variants; v != 600 {
		t.Fatalf("final checkpoint variants %d, want 600", v)
	}
}

func TestSweepSessionCheckpointsAfterDisconnect(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := &fakeResolver{cancelAfter: 300, cancel: cancel, unencodable: -1}
	store, mux := fakeSession(res)
	_, rows, summary := serveSweep(t, mux, postSweep(t, ctx, countGrid(counts(300)...)))
	if summary != nil {
		t.Fatalf("a disconnected stream carried a terminal summary %+v", summary)
	}
	if len(rows) != 300 {
		t.Fatalf("%d rows streamed before the disconnect, want 300", len(rows))
	}
	if len(store.checkpoints) != 2 {
		t.Fatalf("%d checkpoints, want the cadence one plus the final one", len(store.checkpoints))
	}
	final := store.checkpoints[1]
	if final.Done.Count() != 300 || final.Variants != 0 {
		t.Fatalf("final checkpoint done %d variants %d, want 300 and 0 (incomplete)", final.Done.Count(), final.Variants)
	}
	for _, row := range rows {
		if !final.Done.Get(row.Index) {
			t.Fatalf("streamed row %d missing from the final checkpoint", row.Index)
		}
	}
}

// TestSweepSessionFlushesBeforeResolverBlocks: rows are written in
// batches, but the batch goes out whenever the resolver is about to
// wait, so a client sees every row emitted before a pending variant
// while that variant is still pending.
func TestSweepSessionFlushesBeforeResolverBlocks(t *testing.T) {
	res := &fakeResolver{waitAfter: 3, wait: make(chan struct{}), unencodable: -1}
	_, mux := fakeSession(res)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer close(res.wait) // before ts.Close, which waits for the handler
	body, _ := json.Marshal(countGrid(10, 11, 12))
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string, 16) // room for the whole stream
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for i := 0; i < res.waitAfter; i++ {
		select {
		case line := <-lines:
			if !strings.Contains(line, `"cache":"hit"`) {
				t.Fatalf("row %d: %s", i, line)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of the %d rows emitted before the resolver blocked reached the client", i, res.waitAfter)
		}
	}
}

// TestSweepSessionTurnsUnencodableRowsIntoErrorRows: a row that cannot
// be encoded must not vanish while the summary and manifest count it
// as done; it streams as an error row instead.
func TestSweepSessionTurnsUnencodableRowsIntoErrorRows(t *testing.T) {
	res := &fakeResolver{unencodable: 2}
	store, mux := fakeSession(res)
	_, rows, summary := serveSweep(t, mux, postSweep(t, context.Background(), countGrid(10, 11)))
	if len(rows) != 4 || summary == nil || summary.Rows != 4 || summary.Errors != 1 {
		t.Fatalf("%d rows, summary %+v; want 4 rows with 1 error", len(rows), summary)
	}
	bad := rows[2]
	if bad.Index != 2 || bad.Result != nil || bad.Params != nil || !strings.Contains(bad.Error, "encoding row") {
		t.Fatalf("unencodable row streamed as %+v", bad)
	}
	final := store.checkpoints[len(store.checkpoints)-1]
	if !final.Failed.Get(2) || final.Done.Get(2) || final.Done.Count() != 3 {
		t.Fatalf("manifest done %d, row 2 done %v failed %v; want it failed, the other 3 done",
			final.Done.Count(), final.Done.Get(2), final.Failed.Get(2))
	}
}
