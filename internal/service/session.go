// The sweep session: the one implementation of the checkpointed sweep
// protocol, shared by the worker and the shard router.
//
// A SweepSession serves POST /sweep, POST /sweep/analyze, GET
// /sweep/{id}, GET /sweep/{id}/resume and POST /sweep/{id}/analyze.
// It owns everything those endpoints do that does not depend on WHERE
// a variant runs: grid resolution and cycle caps, the model selector,
// the sweep identity and its manifest, the chunked grid walk with its
// resume offset and build-error rows, the NDJSON stream with its
// terminal summary and checkpoint cadence, and the analysis fold. A
// tier plugs in the rest — a chunk resolver that turns variants into
// rows in completion order (the worker's cache and scheduler, the
// router's rank walk with work stealing) and a manifest store (the
// worker's own store, the router's write-through to a backend) — so
// the two tiers cannot drift on protocol semantics.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// sweepChunkSize is how many expanded variants a sweep holds in
// memory at once: the grid is walked lazily and resolved chunk by
// chunk, so a 100k-variant sweep costs O(chunk), not O(grid).
const sweepChunkSize = 2048

// sweepFlushBytes is the byte budget of a sweep stream's row buffer.
// Rows are written to the client in batches: when the buffer reaches
// this size, whenever the resolver is about to wait (on a simulation,
// a disk read or a backend), and at the end of the stream. Warm rows
// then cost no per-row write, and a row that took a wait still reaches
// the client as soon as it is done.
const sweepFlushBytes = 32 << 10

// manifestCheckpointRows is how many emitted rows ride between
// manifest checkpoints. Small enough that a killed stream loses
// little progress, large enough that checkpoint writes stay noise
// next to simulation cost.
const manifestCheckpointRows = 256

// SweepModel is a parsed sweep model selector: the model every variant
// runs, or both models (Compare, one accuracy row per variant).
type SweepModel struct {
	// Model is the single model a run variant uses (TLM under Compare).
	Model core.Model
	// Compare selects a two-model accuracy row per variant.
	Compare bool
}

// parseSweepModel resolves a request's model selector.
func parseSweepModel(name string) (SweepModel, error) {
	switch name {
	case "", "tl", "tlm":
		return SweepModel{Model: core.TLM}, nil
	case "rtl":
		return SweepModel{Model: core.RTL}, nil
	case "compare":
		return SweepModel{Model: core.TLM, Compare: true}, nil
	}
	return SweepModel{}, fmt.Errorf("unknown model %q (want tl, rtl or compare)", name)
}

// String is the canonical selector: "tl", "rtl" or "compare".
func (m SweepModel) String() string {
	if m.Compare {
		return "compare"
	}
	return strings.ToLower(m.Model.String())
}

// Key is the cache key a variant with this content hash lives under —
// the key a direct /run or /compare of that spec uses, so sweeps and
// single requests share one result space.
func (m SweepModel) Key(hash string) string {
	if m.Compare {
		return compareKey(hash)
	}
	return runKey(m.Model, hash)
}

// Endpoint is the single-spec endpoint a variant maps onto: /compare
// or /run.
func (m SweepModel) Endpoint() string {
	if m.Compare {
		return "/compare"
	}
	return "/run"
}

// Request is the Endpoint body that runs sp.
func (m SweepModel) Request(sp *spec.Spec) RunRequest {
	if m.Compare {
		return RunRequest{Spec: sp}
	}
	return RunRequest{Spec: sp, Model: m.String()}
}

// ChunkResolver resolves one chunk of variants and calls emit — always
// from the calling goroutine — once per variant, in completion order.
// It calls flush before it blocks waiting for a row, so the rows
// emitted so far reach the client during the wait. It returns false
// when ctx ended first: the rows emitted are then a subset of the
// chunk and must not be read as the whole of it.
type ChunkResolver[R any] func(ctx context.Context, chunk []sweep.Variant, model SweepModel, emit func(R), flush func()) bool

// SweepSession serves the sweep endpoints of one tier. R is the tier's
// NDJSON row type: SweepRow on a worker, a row carrying the serving
// shard on the router.
type SweepSession[R any] struct {
	// ScenarioByName resolves library-scenario bases.
	ScenarioByName map[string]spec.Spec
	// MaxVariants caps a grid's full Cartesian product (<= 0:
	// DefaultMaxSweepVariants).
	MaxVariants int
	// CheckCycleCap is the tier's max_cycles check, run against every
	// budget the grid can produce.
	CheckCycleCap func(spec.Spec) error
	// Bind validates the request's scheduling identity (batch unless the
	// request says otherwise) and returns the chunk resolver that runs
	// variants under it.
	Bind func(r *http.Request) (ChunkResolver[R], error)
	// Load returns the stored manifest for an id, already Sanitized;
	// false when none is stored or the stored one cannot be trusted.
	Load func(ctx context.Context, id string) (*SweepManifest, bool)
	// Checkpoint persists a manifest, merging it with the stored copy.
	// It must not depend on the request's context: the checkpoint after
	// a client disconnect is the one its resume needs.
	Checkpoint func(m *SweepManifest)
	// Row reads a tier row's protocol fields.
	Row func(R) SweepRow
	// Append appends a tier row's JSON encoding (byte-identical to
	// json.Marshal) to a buffer.
	Append func(R, []byte) ([]byte, error)
	// ErrorRow wraps a grid build-error row, which no resolver served.
	ErrorRow func(SweepRow) R
	// WriteError answers a request-level failure with a JSON error.
	WriteError func(w http.ResponseWriter, r *http.Request, status int, format string, args ...any)
	// Rows counts streamed data rows; Resumes counts resume streams.
	Rows, Resumes *obs.Counter
}

// Sweep serves POST /sweep.
func (s *SweepSession[R]) Sweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.WriteError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req SweepRequest
	if !s.decode(w, r, &req, "parsing request") {
		return
	}
	resolve, err := s.Bind(r)
	if err != nil {
		s.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.stream(w, r, req, -1, resolve)
}

// Analyze serves POST /sweep/analyze: the grid runs exactly like
// /sweep and folds into one analysis document instead of a stream.
func (s *SweepSession[R]) Analyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.WriteError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req AnalyzeRequest
	if !s.decode(w, r, &req, "parsing request") {
		return
	}
	resolve, err := s.Bind(r)
	if err != nil {
		s.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.analyze(w, r, req, resolve)
}

// Status serves GET /sweep/{id}: the stored manifest with derived
// progress counts.
func (s *SweepSession[R]) Status(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	m, ok := s.stored(w, r)
	if !ok {
		return
	}
	body, err := json.Marshal(m.Status())
	if err != nil {
		s.WriteError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(SweepIDHeader, m.ID)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// Resume serves GET /sweep/{id}/resume?after=N: the stored sweep's
// stream restricted to variants with Index > N (default -1: the whole
// grid). The semantics are replay, not delta — every variant past the
// offset streams again regardless of manifest bits (done ones at cache
// speed), so duplicate offsets are idempotent and a lost checkpoint
// can never turn into a silent gap.
func (s *SweepSession[R]) Resume(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	after := -1
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			s.WriteError(w, r, http.StatusBadRequest, "after=%q is not an integer", q)
			return
		}
		after = max(n, -1)
	}
	m, ok := s.stored(w, r)
	if !ok {
		return
	}
	s.Resumes.Inc()
	resolve, err := s.Bind(r)
	if err != nil {
		s.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.stream(w, r, m.Request, after, resolve)
}

// StoredAnalyze serves POST /sweep/{id}/analyze: the analysis selector
// in the body applied to the STORED sweep's grid. A completed sweep
// re-analyzes with zero simulations, and the document is
// byte-identical to POST /sweep/analyze with the grid inlined, because
// both run the same walk and fold.
func (s *SweepSession[R]) StoredAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.WriteError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var sel agg.Request
	if !s.decode(w, r, &sel, "parsing analysis selector") {
		return
	}
	m, ok := s.stored(w, r)
	if !ok {
		return
	}
	resolve, err := s.Bind(r)
	if err != nil {
		s.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.analyze(w, r, AnalyzeRequest{SweepRequest: m.Request, Request: sel}, resolve)
}

// decode strictly decodes the request body into v, answering 400 on
// failure.
func (s *SweepSession[R]) decode(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.WriteError(w, r, http.StatusBadRequest, "%s: %v", what, err)
		return false
	}
	return true
}

// stored loads the manifest the request's {id} names, answering 404
// when there is none. The client's honest fallback is re-POSTing the
// grid, whose deterministic id rebuilds the same manifest.
func (s *SweepSession[R]) stored(w http.ResponseWriter, r *http.Request) (*SweepManifest, bool) {
	id := r.PathValue("id")
	m, ok := s.Load(r.Context(), id)
	if !ok {
		s.WriteError(w, r, http.StatusNotFound, "unknown sweep %q (re-POST the grid to /sweep to rebuild it)", id)
	}
	return m, ok
}

// sweepPlan is a validated sweep request.
type sweepPlan struct {
	grid  sweep.Grid
	total int
	model SweepModel
	id    string
}

// plan validates req — grid, cycle caps, model selector and, when
// check is non-nil, whatever check adds — before anything is
// committed, and derives the sweep's identity.
func (s *SweepSession[R]) plan(req SweepRequest, check func(SweepModel) error) (sweepPlan, error) {
	var p sweepPlan
	var err error
	if p.grid, p.total, err = ResolveSweepGrid(req, s.ScenarioByName, s.MaxVariants); err != nil {
		return p, err
	}
	if err = checkGridCycleCaps(p.grid, s.CheckCycleCap); err != nil {
		return p, err
	}
	if p.model, err = parseSweepModel(req.Model); err != nil {
		return p, err
	}
	if check != nil {
		if err = check(p.model); err != nil {
			return p, err
		}
	}
	p.id, err = sweepID(p.grid.Base, req.Name, p.model, req.Axes)
	return p, err
}

// stream validates the grid and streams its NDJSON rows — POST /sweep
// (after = -1) and GET /sweep/{id}/resume (after = the client's
// high-water mark). The sweep's manifest is checkpointed as rows
// complete, so its identity and progress survive this stream's death.
func (s *SweepSession[R]) stream(w http.ResponseWriter, r *http.Request, req SweepRequest, after int, resolve ChunkResolver[R]) {
	p, err := s.plan(req, nil)
	if err != nil {
		s.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Resume the stored manifest when its grid size still matches,
	// otherwise start a fresh one.
	m, ok := s.Load(r.Context(), p.id)
	if !ok || m.Total != p.total {
		m = &SweepManifest{
			Version: 1, ID: p.id, Request: req, Total: p.total,
			Done: sweep.NewBitset(p.total), Failed: sweep.NewBitset(p.total),
		}
	}

	// The stream is committed: from here, per-variant failures are rows
	// with an error field, not HTTP errors.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Variants", strconv.Itoa(p.total))
	w.Header().Set(SweepIDHeader, p.id)
	w.WriteHeader(http.StatusOK)
	// Room for a full batch plus the row that fills it.
	rw := &rowWriter{w: w, buf: make([]byte, 0, 2*sweepFlushBytes)}
	rw.flusher, _ = w.(http.Flusher)
	// Push the headers out now: on an all-miss grid no row may flush
	// for a while, and a client (or the shard router) pacing itself on
	// X-Sweep-Variants must not block on a header buffered server-side.
	rw.flush()
	emitted, errored, sinceCheckpoint := 0, 0, 0
	emit := func(row R) {
		row = s.appendRow(rw, row)
		s.Rows.Inc()
		emitted++
		if sr := s.Row(row); sr.Error != "" {
			errored++
			m.Failed.Set(sr.Index)
		} else {
			m.Done.Set(sr.Index)
			m.Failed.Clear(sr.Index)
		}
		if sinceCheckpoint++; sinceCheckpoint >= manifestCheckpointRows {
			sinceCheckpoint = 0
			s.Checkpoint(m)
		}
	}

	// Client gone mid-grid: no terminal row — a truncated stream IS
	// truncated. The final checkpoint still runs: progress made before
	// the disconnect is exactly what a resume wants to skip.
	distinct, complete := s.walk(r.Context(), p, after, resolve, emit, rw.flush)
	if complete {
		// The terminal summary row runs only when every variant
		// produced a row — nothing here fakes completion.
		summary, _ := json.Marshal(SweepSummary{Done: true, Rows: emitted, Errors: errored})
		rw.buf = append(append(rw.buf, summary...), '\n')
		// A completed walk knows the deduplicated variant count even
		// when it only EMITTED a suffix — the walk itself always
		// enumerates from index 0 — so a resume that reaches the end
		// can mark the sweep complete just like the initial stream.
		m.Variants = distinct
	}
	rw.flush()
	s.Checkpoint(m)
}

// appendRow appends row as one NDJSON line and returns the row the
// line holds. A row that cannot be encoded is replaced by an error row
// that names it, so the stream, its summary and the manifest never
// count a row the client did not get.
func (s *SweepSession[R]) appendRow(rw *rowWriter, row R) R {
	line, err := s.Append(row, rw.buf)
	if err != nil {
		sr := s.Row(row)
		row = s.ErrorRow(SweepRow{Index: sr.Index, Name: sr.Name, Hash: sr.Hash, Error: "encoding row: " + err.Error()})
		line, _ = s.Append(row, rw.buf) // identity fields only: always encodes
	}
	rw.buf = append(line, '\n')
	if len(rw.buf) >= sweepFlushBytes {
		rw.flush()
	}
	return row
}

// rowWriter batches a sweep stream's NDJSON lines; flush writes the
// batch and pushes it to the client.
type rowWriter struct {
	w       io.Writer
	flusher http.Flusher
	buf     []byte
}

func (rw *rowWriter) flush() {
	if len(rw.buf) > 0 {
		rw.w.Write(rw.buf)
		rw.buf = rw.buf[:0]
	}
	if rw.flusher != nil {
		rw.flusher.Flush()
	}
}

// analyze runs an analysis request — POST /sweep/analyze (grid
// inlined) and POST /sweep/{id}/analyze (grid from the stored
// manifest). Rows are folded into metric inputs as they complete, so
// a 100k-variant analysis holds per-variant metrics, never the full
// result bodies.
func (s *SweepSession[R]) analyze(w http.ResponseWriter, r *http.Request, req AnalyzeRequest, resolve ChunkResolver[R]) {
	// Reject a bad analysis selector BEFORE the grid costs anything:
	// an unknown metric must not burn 100k simulations first.
	p, err := s.plan(req.SweepRequest, func(m SweepModel) error { return req.Request.Validate(m.Compare) })
	if err != nil {
		s.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	inputs := make([]agg.Input, 0, min(p.total, sweepChunkSize))
	distinct, complete := s.walk(r.Context(), p, -1, resolve, func(row R) {
		inputs = append(inputs, AnalyzeInput(p.model.Compare, s.Row(row)))
	}, func() {})
	if !complete {
		return // client gone; in-flight jobs still fill the caches
	}
	doc, err := agg.Analyze(req.Request, p.model.Compare, AggAxes(req.Axes), distinct, inputs)
	if err != nil {
		// The grid ran but the analysis cannot be computed from its
		// results (a per-master metric naming a port the workload lacks
		// slips past static validation). The results are cached, so a
		// corrected request replays for free.
		s.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := json.Marshal(doc)
	if err != nil {
		s.WriteError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sweep-Variants", strconv.Itoa(p.total))
	w.Header().Set(SweepIDHeader, p.id)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// walk walks the grid lazily and resolves it in chunks of at most
// sweepChunkSize variants, so grid memory stays O(chunk). Variants
// with Index <= after are skipped (their rows streamed before a
// disconnect); build failures on individual grid points become error
// rows, not stream deaths. flush is handed to the resolver. Returns
// the deduplicated variant count of the FULL walk (valid only when
// complete) and whether the walk finished before ctx ended.
func (s *SweepSession[R]) walk(ctx context.Context, p sweepPlan, after int, resolve ChunkResolver[R], emit func(R), flush func()) (distinct int, complete bool) {
	chunk := make([]sweep.Variant, 0, min(p.total, sweepChunkSize))
	run := func() bool {
		if len(chunk) == 0 {
			return true
		}
		ok := resolve(ctx, chunk, p.model, emit, flush)
		chunk = chunk[:0]
		return ok
	}
	err := p.grid.Walk(func(v sweep.Variant, verr error) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if verr != nil {
			if v.Index > after {
				row := VariantRow(v)
				row.Error = verr.Error()
				emit(s.ErrorRow(row))
			}
			return nil
		}
		distinct++
		if v.Index <= after {
			return nil
		}
		chunk = append(chunk, v)
		if len(chunk) >= sweepChunkSize {
			if !run() {
				return context.Canceled
			}
		}
		return nil
	})
	if err != nil {
		return distinct, false
	}
	return distinct, run()
}
