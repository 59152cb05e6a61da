package drill

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/shard"
)

// exited is the panic a test drill's exit raises, so Failf stops the
// calling code the way os.Exit would.
type exited struct{ code int }

// testDrill returns a drill whose failure lines land in log and whose
// exit records "exit <code>" in trace and panics with exited.
func testDrill(trace *[]string) (*Drill, *bytes.Buffer) {
	log := &bytes.Buffer{}
	return &Drill{name: "testdrill", log: log, exit: func(code int) {
		*trace = append(*trace, fmt.Sprintf("exit %d", code))
		panic(exited{code})
	}}, log
}

// failed runs f and returns the exit code it ended with, or -1 when it
// returned normally.
func failed(t *testing.T, f func()) (code int) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(exited)
			if !ok {
				panic(r)
			}
			code = e.code
		}
	}()
	f()
	return -1
}

func TestFailfRunsCleanupsLIFOBeforeExit(t *testing.T) {
	var trace []string
	d, log := testDrill(&trace)
	for _, name := range []string{"temp dir", "supervisor", "router", "front"} {
		d.Defer(func() { trace = append(trace, name) })
	}
	if code := failed(t, func() { d.Failf("shard %d down", 3) }); code != 1 {
		t.Fatalf("Failf exited with %d, want 1", code)
	}
	want := []string{"front", "router", "supervisor", "temp dir", "exit 1"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace %q, want %q", trace, want)
	}
	if log.String() != "testdrill: shard 3 down\n" {
		t.Fatalf("failure line %q", log.String())
	}

	// The cleanups ran once: a later Close (main's defer) or a second
	// failure does not run them again, and still exits nonzero.
	trace = nil
	if code := failed(t, d.Close); code != 1 {
		t.Fatalf("Close after a failure exited with %d, want 1", code)
	}
	if !reflect.DeepEqual(trace, []string{"exit 1"}) {
		t.Fatalf("Close after a failure: trace %q", trace)
	}
}

func TestCloseRunsCleanupsLIFOWithoutExit(t *testing.T) {
	var trace []string
	d, _ := testDrill(&trace)
	d.Defer(func() { trace = append(trace, "first") })
	d.Defer(func() { trace = append(trace, "second") })
	if code := failed(t, d.Close); code != -1 {
		t.Fatalf("passing drill's Close exited with %d", code)
	}
	if !reflect.DeepEqual(trace, []string{"second", "first"}) {
		t.Fatalf("trace %q", trace)
	}
}

// canned serves body as an NDJSON sweep stream with the given status.
func canned(t *testing.T, status int, body string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Sweep-ID", "canned")
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

const (
	row0 = `{"index":0,"name":"g/0","hash":"h0","cache":"miss","shard":1}` + "\n"
	row1 = `{"index":1,"name":"g/1","hash":"h1","cache":"hit","shard":0,"failover":"1->0"}` + "\n"
	row2 = `{"index":2,"name":"g/2","hash":"h2","cache":"miss","shard":0}` + "\n"
)

func TestSweepFailsOnBrokenStreams(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		body   string
		want   string
	}{
		{"non-200 status", http.StatusServiceUnavailable, `{"error":"saturated"}`, "status 503: {\"error\":\"saturated\"}"},
		{"no terminal row", http.StatusOK, row0 + row1, "without a terminal summary (2 rows)"},
		{"empty stream", http.StatusOK, "", "without a terminal summary (0 rows)"},
		{"summary disagrees", http.StatusOK, row0 + row1 + `{"done":true,"rows":3,"errors":0}` + "\n", "summary says 3 rows, stream carried 2"},
		{"undecodable row", http.StatusOK, row0 + "<html>\n", "sweep stream:"},
		{"line after the summary", http.StatusOK, row0 + `{"done":true,"rows":1}` + "\n" + row1, "after the terminal summary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var trace []string
			d, log := testDrill(&trace)
			d.Defer(func() { trace = append(trace, "cleanup") })
			url := canned(t, tc.status, tc.body)
			if code := failed(t, func() { d.Sweep(url+"/sweep", map[string]any{"name": "g"}, nil) }); code != 1 {
				t.Fatalf("Sweep over %q exited with %d, want a failure", tc.body, code)
			}
			if !strings.Contains(log.String(), tc.want) || !strings.HasPrefix(log.String(), "testdrill: ") {
				t.Fatalf("failure line %q, want one naming %q", log.String(), tc.want)
			}
			if !reflect.DeepEqual(trace, []string{"cleanup", "exit 1"}) {
				t.Fatalf("trace %q", trace)
			}
		})
	}
}

func TestSweepReturnsRowsSummaryAndHeaders(t *testing.T) {
	var trace []string
	d, _ := testDrill(&trace)
	url := canned(t, http.StatusOK, row0+row1+row2+`{"done":true,"rows":3,"errors":1}`+"\n")
	var seen []int
	rows, summary, hdr := d.Sweep(url+"/sweep/canned/resume?after=-1", nil, func(r shard.Row) bool {
		seen = append(seen, r.Index)
		return true
	})
	if len(rows) != 3 || summary.Rows != 3 || summary.Errors != 1 || hdr.Get("X-Sweep-ID") != "canned" {
		t.Fatalf("rows %d summary %+v id %q", len(rows), summary, hdr.Get("X-Sweep-ID"))
	}
	if !reflect.DeepEqual(seen, []int{0, 1, 2}) || rows[1].Shard != 0 || rows[1].Failover != "1->0" || rows[0].Shard != 1 {
		t.Fatalf("rows %+v seen %v", rows, seen)
	}
	if len(trace) != 0 {
		t.Fatalf("a clean stream failed the drill: %q", trace)
	}
}

func TestSweepHangUpSkipsTheSummaryChecks(t *testing.T) {
	var trace []string
	d, _ := testDrill(&trace)
	// No terminal row: the client hanging up after two rows must not
	// read the truncation as a failure.
	url := canned(t, http.StatusOK, row0+row1+row2)
	rows, summary, _ := d.Sweep(url+"/sweep", map[string]any{"name": "g"}, func(r shard.Row) bool { return r.Index < 1 })
	if len(rows) != 2 || summary.Rows != 0 || len(trace) != 0 {
		t.Fatalf("hang-up: %d rows, summary %+v, trace %q", len(rows), summary, trace)
	}
}
