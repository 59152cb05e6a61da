// Package drill is the harness the smoke drivers in examples/*_service
// share: a named drill that fails loudly and cleans up after itself,
// the simd binary under test, in-process reference servers and
// supervised clusters, and the checked client calls every drill gates
// on — sweep streams, analyses, metrics scrapes and cluster health.
//
// A failing drill exits nonzero only after running every registered
// cleanup in reverse order, so it stops its cluster's worker processes
// and removes its temp dir instead of orphaning them.
package drill

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
)

// Drill is one running smoke drill: its name (the prefix of every
// failure line), its temp dir and its cleanups.
type Drill struct {
	name string
	// Tmp is the drill's scratch directory, removed at cleanup.
	Tmp  string
	simd string
	// log receives failure lines and exit ends the process; tests
	// substitute both to observe a failure.
	log  io.Writer
	exit func(code int)

	mu       sync.Mutex
	cleanups []func()
	once     sync.Once
	failed   atomic.Bool
}

// New starts the drill called name: it defines the -simd flag, parses
// the command line (a driver defines its own flags before calling
// New) and makes the drill's temp dir. Stray arguments fail the drill.
// main defers Close.
func New(name string) *Drill {
	simd := flag.String("simd", "", "prebuilt simd binary (empty: go build ./cmd/simd into the drill's temp dir)")
	flag.Parse()
	d := &Drill{name: name, simd: *simd, log: os.Stderr, exit: os.Exit}
	if flag.NArg() > 0 {
		d.Failf("unexpected arguments %q", flag.Args())
	}
	tmp, err := os.MkdirTemp("", name)
	if err != nil {
		d.Failf("%v", err)
	}
	d.Tmp = tmp
	d.Defer(func() { os.RemoveAll(tmp) })
	return d
}

// Defer registers f to run at cleanup, after every cleanup registered
// later (LIFO, like defer).
func (d *Drill) Defer(f func()) {
	d.mu.Lock()
	d.cleanups = append(d.cleanups, f)
	d.mu.Unlock()
}

// cleanup runs the registered cleanups once; a second caller waits
// for the first to finish.
func (d *Drill) cleanup() {
	d.once.Do(func() {
		d.mu.Lock()
		fs := d.cleanups
		d.cleanups = nil
		d.mu.Unlock()
		for i := len(fs) - 1; i >= 0; i-- {
			fs[i]()
		}
	})
}

// Failf reports a violation as "<drill>: <message>" on stderr, runs
// the cleanups and exits 1. It may be called from any goroutine.
func (d *Drill) Failf(format string, args ...any) {
	fmt.Fprintf(d.log, d.name+": "+format+"\n", args...)
	d.failed.Store(true)
	d.cleanup()
	d.exit(1)
}

// Close runs the cleanups at the end of a passing drill. If another
// goroutine failed meanwhile, Close waits for its cleanups and exits
// 1, so main returning cannot turn a failure into success.
func (d *Drill) Close() {
	d.cleanup()
	if d.failed.Load() {
		d.exit(1)
	}
}

// Simd returns the simd binary under test: the -simd path, or, when it
// is empty, ./cmd/simd built into the drill's temp dir on first use.
func (d *Drill) Simd() string {
	if d.simd == "" {
		bin := filepath.Join(d.Tmp, "simd")
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/simd").CombinedOutput()
		if err != nil {
			d.Failf("building simd: %v\n%s", err, out)
		}
		d.simd = bin
	}
	return d.simd
}

// closeFront shuts an httptest front down. A failing drill can leave a
// stream in flight, and Close alone would wait for it to finish.
func closeFront(ts *httptest.Server) {
	ts.CloseClientConnections()
	ts.Close()
}

// Server starts an in-process simd server (service.New behind an
// httptest listener) and returns it, its base URL and a stop function
// that closes both. stop is also the server's cleanup and runs at most
// once, so a drill may stop a server early, say to restart over the
// same store.
func (d *Drill) Server(opt service.Options) (*service.Server, string, func()) {
	srv, err := service.New(opt)
	if err != nil {
		d.Failf("starting server: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop := sync.OnceFunc(func() {
		closeFront(ts)
		srv.Close()
	})
	d.Defer(stop)
	return srv, ts.URL, stop
}

// Cluster spawns n supervised simd workers (shard.SpawnWith with
// argsFor and spawn) behind an in-process router built from opt, its
// Backends and Supervisor set to the spawned workers, and fronts the
// router with an httptest listener. It returns the supervisor and the
// front URL; cleanup closes the front and router and stops the workers.
func (d *Drill) Cluster(n int, argsFor func(i int) []string, spawn shard.SpawnOptions, opt shard.Options) (*shard.Supervisor, string) {
	sup, err := shard.SpawnWith(d.Simd(), n, argsFor, spawn)
	if err != nil {
		d.Failf("spawning cluster: %v", err)
	}
	d.Defer(sup.Stop)
	opt.Backends, opt.Supervisor = sup.URLs(), sup
	rt, err := shard.New(opt)
	if err != nil {
		d.Failf("router: %v", err)
	}
	d.Defer(rt.Close)
	front := httptest.NewServer(rt.Handler())
	d.Defer(func() { closeFront(front) })
	return sup, front.URL
}

// Request builds a JSON request to url carrying v's encoding (no body
// when v is nil), for callers that set headers before Do or Stream.
func (d *Drill) Request(method, url string, v any) *http.Request {
	var body io.Reader
	if v != nil {
		buf, err := json.Marshal(v)
		if err != nil {
			d.Failf("encoding request: %v", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		d.Failf("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	return req
}

// Post sends v's JSON encoding (no body when v is nil) to url and
// returns the status, headers and body. A transport error fails the
// drill; the status is the caller's to check.
func (d *Drill) Post(url string, v any) (int, http.Header, []byte) {
	return d.Do(d.Request(http.MethodPost, url, v))
}

// Get fetches url; see Post.
func (d *Drill) Get(url string) (int, http.Header, []byte) {
	return d.Do(d.Request(http.MethodGet, url, nil))
}

// Do sends req and returns the status, headers and body. A transport
// error fails the drill; the status is the caller's to check.
func (d *Drill) Do(req *http.Request) (int, http.Header, []byte) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.Failf("%s %s: %v", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.Failf("reading %s response: %v", req.URL.Path, err)
	}
	return resp.StatusCode, resp.Header, body
}

// Sweep streams a sweep from url: a POST of req's JSON encoding (a
// /sweep endpoint), or a GET when req is nil (a resume endpoint). See
// Stream for onRow and the checks.
func (d *Drill) Sweep(url string, req any, onRow func(shard.Row) bool) ([]shard.Row, service.SweepSummary, http.Header) {
	method := http.MethodPost
	if req == nil {
		method = http.MethodGet
	}
	return d.Stream(d.Request(method, url, req), onRow)
}

// errHangUp is onRow's request to stop reading a stream.
var errHangUp = errors.New("drill: client hung up")

// Stream sends req and decodes the NDJSON sweep stream it answers,
// calling onRow (may be nil) with each data row as it arrives. onRow
// returning false hangs up: Stream closes the body and returns the
// rows so far with a zero summary. Otherwise Stream fails the drill on
// a non-200 status, an undecodable line, a stream that ends without
// its terminal summary row, or a summary whose row count disagrees
// with the rows streamed. It returns the data rows, the summary and
// the response headers.
func (d *Drill) Stream(req *http.Request, onRow func(shard.Row) bool) ([]shard.Row, service.SweepSummary, http.Header) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.Failf("%s %s: %v", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		d.Failf("%s status %d: %s", req.URL.Path, resp.StatusCode, body)
	}
	var rows []shard.Row
	summary, done, err := service.DecodeSweepStream(resp.Body, func(line []byte) error {
		var r shard.Row
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		rows = append(rows, r)
		if onRow != nil && !onRow(r) {
			return errHangUp
		}
		return nil
	})
	if errors.Is(err, errHangUp) {
		return rows, service.SweepSummary{}, resp.Header
	}
	if err != nil {
		d.Failf("sweep stream: %v", err)
	}
	if !done {
		d.Failf("sweep stream ended without a terminal summary (%d rows) — TRUNCATED", len(rows))
	}
	if summary.Rows != len(rows) {
		d.Failf("summary says %d rows, stream carried %d", summary.Rows, len(rows))
	}
	return rows, summary, resp.Header
}

// Analyze submits req to url's POST /sweep/analyze through the typed
// client and returns the decoded document plus the raw bytes for
// byte-identity checks; any error fails the drill.
func (d *Drill) Analyze(url string, req service.AnalyzeRequest) (agg.Analysis, []byte) {
	client := &service.Client{Base: url}
	doc, body, err := client.AnalyzeSweep(context.Background(), req)
	if err != nil {
		d.Failf("analyze against %s: %v (%s)", url, err, body)
	}
	return *doc, body
}

// Metrics scrapes and parses url's GET /metrics (a worker's own or a
// router's aggregated scrape); a failed scrape fails the drill.
func (d *Drill) Metrics(url string) []obs.Family {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		d.Failf("metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.Failf("metrics status %d", resp.StatusCode)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		d.Failf("parsing metrics: %v", err)
	}
	return fams
}

// SumCounter totals a counter family across all its label sets; a
// non-integer sample fails the drill.
func (d *Drill) SumCounter(fams []obs.Family, name string) int {
	total := 0
	for _, v := range obs.Find(fams, name) {
		n, err := strconv.Atoi(v)
		if err != nil {
			d.Failf("counter %s value %q: %v", name, v, err)
		}
		total += n
	}
	return total
}

// Health reads a router's aggregated GET /healthz. Errors are
// returned, not fatal: drills poll it while shards die and respawn.
func Health(url string) (shard.ClusterHealth, error) {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return shard.ClusterHealth{}, err
	}
	defer resp.Body.Close()
	var h shard.ClusterHealth
	return h, json.NewDecoder(resp.Body).Decode(&h)
}
