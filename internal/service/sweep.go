// POST /sweep: parameter-grid sweeps with per-row streaming.
//
// The request names a base workload (inline spec or library scenario)
// plus axis descriptors; the grid engine (internal/sweep) expands
// them into a deduplicated variant list, and the response streams one
// NDJSON row per variant as its simulation completes — not when the
// whole grid is done. Every variant consults the full cache path
// (memory LRU, disk store, in-flight coalescing) before costing a
// simulation, and runs through the same weighted-fair scheduler as
// /run and /compare — under the Batch class (unless X-Class says
// otherwise), so a deep sweep fills its own class queue while
// interactive requests keep their weighted share of the workers.
// When the batch queue saturates, a sweep row waits out the BATCH
// class's Retry-After and retries instead of failing the stream, so
// sweeps apply backpressure to themselves rather than starving
// interactive requests of their 503 signal.
//
// This file holds the sweep wire types, grid resolution and the
// worker's chunk resolver; the protocol around them is the shared
// SweepSession (session.go).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// DefaultMaxSweepVariants bounds one sweep request's full Cartesian
// product when Options.MaxSweepVariants is unset (the -max-sweep-
// variants flag). The engine's own hard bound (sweep.MaxVariants) is
// an upper limit on top. Grids this size are processed in bounded
// chunks (sweepChunkSize variants in memory at a time), so the cap
// protects simulation budget, not process memory.
const DefaultMaxSweepVariants = 100_000

// SweepRequest is the body of POST /sweep — the wire contract shared
// with frontends (the shard router decodes one to partition its grid).
// Exactly one of Base and Scenario selects the base workload the axes
// are applied to.
type SweepRequest struct {
	// Base is an inline base workload spec.
	Base *spec.Spec `json:"base,omitempty"`
	// Scenario names a base spec from the built-in library.
	Scenario string `json:"scenario,omitempty"`
	// Name prefixes variant names (default: the base spec's name).
	Name string `json:"name,omitempty"`
	// Model selects what each variant runs: "tl" (default), "rtl", or
	// "compare" (both models, one accuracy row per variant).
	Model string `json:"model,omitempty"`
	// Axes are the swept dimensions (sweep.Apply parameter names).
	Axes []SweepAxis `json:"axes"`
}

// SweepAxis is one wire-form axis: a parameter name and its values.
type SweepAxis struct {
	Param  string `json:"param"`
	Values []any  `json:"values"`
}

// SweepRow is one NDJSON line of the /sweep response, emitted when
// the variant's result is ready. Result carries the exact cached body
// of the variant's /run or /compare response (so a sweep row and a
// direct request are byte-identical where they overlap); Cache is the
// row's disposition — "hit", "coalesced" or "miss" — and is omitted
// on error rows (Error set, no result to attribute).
type SweepRow struct {
	Index  int             `json:"index"`
	Name   string          `json:"name"`
	Hash   string          `json:"hash"`
	Params map[string]any  `json:"params"`
	Cache  string          `json:"cache,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// AppendJSON appends the row's JSON encoding to dst, byte-identical
// to json.Marshal's. The result body is spliced in verbatim, so it
// must be compact JSON on one line, as every body this service stores
// is (ValidResultBody). The only error is a parameter value JSON
// cannot encode.
func (row SweepRow) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := row.AppendFields(dst)
	return append(dst, '}'), err
}

// AppendFields is AppendJSON without the closing brace, for a row type
// that embeds SweepRow and appends its own fields after these.
func (row SweepRow) AppendFields(dst []byte) ([]byte, error) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(row.Index), 10)
	dst = append(dst, `,"name":`...)
	dst = AppendJSONString(dst, row.Name)
	dst = append(dst, `,"hash":`...)
	dst = AppendJSONString(dst, row.Hash)
	dst = append(dst, `,"params":`...)
	dst, err := appendParams(dst, row.Params)
	if row.Cache != "" {
		dst = append(dst, `,"cache":`...)
		dst = AppendJSONString(dst, row.Cache)
	}
	if len(row.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, row.Result...)
	}
	if row.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = AppendJSONString(dst, row.Error)
	}
	return dst, err
}

// appendParams appends a row's parameter map as encoding/json renders
// it: keys sorted, null for a nil map.
func appendParams(dst []byte, params map[string]any) ([]byte, error) {
	if params == nil {
		return append(dst, "null"...), nil
	}
	var room [8]string
	keys := room[:0]
	for k := range params {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		switch v := params[k].(type) {
		case bool:
			dst = strconv.AppendBool(dst, v)
		case string:
			dst = AppendJSONString(dst, v)
		case float64: // every wire number
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return dst, fmt.Errorf("param %q: unsupported value %v", k, v)
			}
			dst = appendFloat(dst, v)
		default:
			b, err := json.Marshal(v)
			if err != nil {
				return dst, fmt.Errorf("param %q: %w", k, err)
			}
			dst = append(dst, b...)
		}
	}
	return append(dst, '}'), nil
}

// appendFloat appends a finite float64 the way encoding/json does:
// shortest round-trip digits, exponent form only below 1e-6 or from
// 1e21 up, with a one-digit negative exponent unpadded (1e-07 → 1e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// AppendJSONString appends s as a JSON string, byte-identical to
// encoding/json, which also escapes <, > and & for HTML safety.
// Printable ASCII without those characters is copied as is; anything
// else goes through json.Marshal.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ValidResultBody reports whether body can be served as a result:
// valid JSON on one line, so sweep rows can splice it in verbatim
// without breaking the NDJSON framing. Bodies this service computes
// always are; bodies from elsewhere (a backend's answer, a stolen
// result's write-back) are checked once, where they arrive.
func ValidResultBody(body []byte) bool {
	return json.Valid(body) && bytes.IndexByte(body, '\n') < 0
}

// SweepSummary is the terminal NDJSON line of a completed /sweep
// stream: Done is always true, Rows counts the data rows emitted
// before it and Errors how many of those carried an error field. A
// stream that ends *without* this line was truncated — the connection
// dropped, the handler died, a shard vanished — and the rows received
// must not be mistaken for the whole grid. (Data rows never set Done,
// so the two line shapes cannot be confused.)
type SweepSummary struct {
	Done   bool `json:"done"`
	Rows   int  `json:"rows"`
	Errors int  `json:"errors"`
}

// resolveSweepBase picks the base workload: an inline spec or a
// library-scenario name looked up in byName, exactly one of them.
func resolveSweepBase(req SweepRequest, byName map[string]spec.Spec) (spec.Spec, error) {
	switch {
	case req.Base != nil && req.Scenario != "":
		return spec.Spec{}, errors.New("request has both base and scenario; send one")
	case req.Base != nil:
		return *req.Base, nil
	case req.Scenario != "":
		found, ok := byName[req.Scenario]
		if !ok {
			return spec.Spec{}, fmt.Errorf("unknown scenario %q", req.Scenario)
		}
		return found, nil
	}
	return spec.Spec{}, errors.New("request needs a base spec or a scenario name")
}

// ResolveSweepGrid is the ONE place a sweep request becomes an engine
// grid: it resolves the base workload, builds the axes, sizes the
// full Cartesian product against max (<= 0: DefaultMaxSweepVariants)
// and pre-validates every axis value against a clone of the base —
// all without expanding a single variant. Both tiers' sweep sessions
// call it, so the two tiers of a deployment accept exactly the same
// grids and enforce exactly the same cap. Returns the grid and the
// product size.
func ResolveSweepGrid(req SweepRequest, byName map[string]spec.Spec, max int) (sweep.Grid, int, error) {
	base, err := resolveSweepBase(req, byName)
	if err != nil {
		return sweep.Grid{}, 0, err
	}
	grid := sweep.Grid{Name: req.Name, Base: base}
	for _, ax := range req.Axes {
		vals := make([]sweep.Value, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = sweep.Value{V: v}
		}
		grid.Axes = append(grid.Axes, sweep.Axis{Param: ax.Param, Values: vals})
	}
	total, err := grid.Total()
	if err != nil {
		return grid, 0, err
	}
	if max <= 0 {
		max = DefaultMaxSweepVariants
	}
	if total > max {
		return grid, 0, fmt.Errorf("grid expands to %d variants (max %d)", total, max)
	}
	// Pre-flight every axis value against the base: an unknown
	// parameter or a mistyped value fails the request with a 400
	// before the stream commits, exactly as full expansion used to,
	// at O(axis values) cost. Combination-dependent failures (legal
	// values that conflict mid-grid) surface later as error rows.
	for _, ax := range grid.Axes {
		for _, v := range ax.Values {
			sp := base.Clone()
			if err := sweep.Apply(&sp, ax.Param, v.V); err != nil {
				return grid, 0, fmt.Errorf("sweep: axis %q value %v: %w", ax.Param, v.V, err)
			}
		}
	}
	return grid, total, nil
}

// ExpandSweepRequest resolves and fully materializes the request's
// deduplicated variant list, enforcing max (<= 0:
// DefaultMaxSweepVariants). Streaming paths walk the grid in chunks
// instead; this remains for callers that need the whole list (tests,
// offline tools).
func ExpandSweepRequest(req SweepRequest, byName map[string]spec.Spec, max int) ([]sweep.Variant, error) {
	grid, _, err := ResolveSweepGrid(req, byName, max)
	if err != nil {
		return nil, err
	}
	return grid.Expand()
}

// bindSweep is the worker's SweepSession.Bind: the request's
// scheduling identity (batch by default) bound to collectRows.
func (s *Server) bindSweep(r *http.Request) (ChunkResolver[SweepRow], error) {
	id, err := s.requestIdent(r, sched.Batch)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, chunk []sweep.Variant, model SweepModel, emit func(SweepRow), flush func()) bool {
		return s.collectRows(ctx, chunk, model, id, emit, flush)
	}, nil
}

// collectRows is the worker's chunk resolver: it resolves one chunk
// of variants through the shared cache/singleflight/scheduler path and
// invokes emit — always from this goroutine — once per variant in
// completion order, so /sweep, resume and both analyze endpoints
// cannot diverge on caching, backpressure or failure semantics. It
// calls flush whenever it is about to wait for a row. Returns false
// when ctx ended first.
func (s *Server) collectRows(ctx context.Context, variants []sweep.Variant, model SweepModel, id ident, emit func(SweepRow), flush func()) bool {
	// First pass: serve every memory-cached variant immediately, so a
	// warm sweep streams at memory speed no matter how busy the pool
	// is, and collect the rest for the workers. Disk-held variants
	// resolve in the worker pass — executeOnce's lookup finds them
	// without touching the pool, so they also stream while it is
	// saturated, and the disk tier is probed exactly once per variant.
	var pending []sweep.Variant
	for _, v := range variants {
		if body, ok := s.lookupMemory(model.Key(v.Hash)); ok {
			emit(sweepRow(v, "hit", http.StatusOK, body))
			continue
		}
		pending = append(pending, v)
	}

	// Second pass: resolve the misses concurrently (bounded by the
	// worker count — the pool's queue bound stays the real limiter)
	// and hand rows over in completion order.
	if len(pending) == 0 {
		return true
	}
	rows := make(chan SweepRow)
	work := make(chan sweep.Variant)
	workersN := min(s.workers, len(pending))
	for i := 0; i < workersN; i++ {
		go func() {
			for v := range work {
				row, ok := s.resolveVariant(ctx, v, model, id)
				if !ok {
					return // client gone; in-flight jobs still fill the cache
				}
				select {
				case rows <- row:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(work)
		for _, v := range pending {
			select {
			case work <- v:
			case <-ctx.Done():
				return
			}
		}
	}()
	for n := 0; n < len(pending); n++ {
		var row SweepRow
		select {
		case row = <-rows:
		default:
			flush() // no row is ready: the rest wait on the disk or the scheduler
			select {
			case row = <-rows:
			case <-ctx.Done():
				return false
			}
		}
		emit(row)
	}
	return true
}

// resolveVariant computes (or replays) one variant through the shared
// execute path, retrying with backoff while its class queue is
// saturated. ok=false means the request context ended first.
func (s *Server) resolveVariant(ctx context.Context, v sweep.Variant, model SweepModel, id ident) (SweepRow, bool) {
	// Compile the spec inside the job, not here: a warm variant is
	// answered from a cache tier or a coalesced flight without paying
	// generator compilation (a restarted server replaying a big grid
	// from disk compiles nothing). Expand already validated the spec,
	// so a FromSpec failure is a programming error the job surfaces as
	// its panic-captured 500 body.
	compute := func(jobCtx context.Context, tm *Timing) ([]byte, error) {
		wl, err := core.FromSpec(v.Spec)
		if err != nil {
			return nil, err
		}
		if model.Compare {
			return computeCompare(v.Spec, v.Hash, wl)(jobCtx, tm)
		}
		return computeRun(v.Spec, v.Hash, model.Model, wl)(jobCtx, tm)
	}
	key := model.Key(v.Hash)
	for attempt := 0; ; attempt++ {
		status, body, disposition, _, err := s.executeOnce(ctx, key, id, compute, attempt > 0)
		if err != nil {
			return SweepRow{}, false
		}
		if status != http.StatusServiceUnavailable {
			return sweepRow(v, disposition, status, body), true
		}
		if disposition == dispositionClosed {
			// The scheduler is shut down, not busy: emit the failure as
			// the row instead of retrying against a terminal condition.
			return sweepRow(v, "", status, body), true
		}
		// Saturated: the sweep absorbs its own backpressure instead of
		// surfacing a mid-stream 503 row. The wait honors the SAME
		// number a 503 response would have advertised in Retry-After —
		// this request's OWN class backlog (a batch sweep backs off on
		// batch depth, never on interactive load), clamped exactly
		// like the shard router's retries — not a hardcoded
		// millisecond loop that hammers a saturated queue dozens of
		// times a second per pending variant.
		if !sleepFor(ctx, RetryWaitSeconds(s.sched.RetryAfterSeconds(id.class))) {
			return SweepRow{}, false
		}
	}
}

// sweepRow renders one emitted row. Non-200 statuses surface the
// body's error message in the row's error field.
func sweepRow(v sweep.Variant, disposition string, status int, body []byte) SweepRow {
	row := VariantRow(v)
	if status == http.StatusOK {
		row.Cache = disposition
		row.Result = json.RawMessage(body)
		return row
	}
	row.Error = ErrorMessage(status, body)
	return row
}

// VariantRow is v's row with only its identity filled in: index, name,
// content hash and parameters.
func VariantRow(v sweep.Variant) SweepRow {
	return SweepRow{Index: v.Index, Name: v.Spec.Name, Hash: v.Hash, Params: v.Params}
}

// ErrorMessage is what a non-200 endpoint answer puts in a row's error
// field: the body's error message, or the bare status when it has
// none.
func ErrorMessage(status int, body []byte) string {
	var e errorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return fmt.Sprintf("status %d", status)
}
