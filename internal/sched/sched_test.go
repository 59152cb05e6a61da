package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate blocks the scheduler's single worker so tests can stage queue
// contents deterministically, then releases it.
type gate struct {
	started chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{started: make(chan struct{}), release: make(chan struct{})}
}

// hold submits the blocking job and waits until it occupies a worker.
func (g *gate) hold(t *testing.T, s *Scheduler) func() {
	t.Helper()
	wait, err := s.Submit("gate", Interactive, func() { close(g.started); <-g.release })
	if err != nil {
		t.Fatalf("gate submit: %v", err)
	}
	<-g.started
	return wait
}

// order records job completion order; with one worker, completion
// order IS dispatch order.
type order struct {
	mu    sync.Mutex
	names []string
}

func (o *order) add(name string) {
	o.mu.Lock()
	o.names = append(o.names, name)
	o.mu.Unlock()
}

func (o *order) snapshot() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.names...)
}

// TestWeightedClassSharing pins the 4:1 interactive:batch discipline:
// with both classes backlogged on one worker, every window of five
// dispatches gives interactive four slots.
func TestWeightedClassSharing(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 32})
	defer s.Close()
	g := newGate()
	gw := g.hold(t, s)

	var got order
	var waits []func()
	submit := func(tenant string, class Class, name string) {
		w, err := s.Submit(tenant, class, func() { got.add(name) })
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		waits = append(waits, w)
	}
	for i := 0; i < 8; i++ {
		submit("alice", Interactive, "I")
	}
	for i := 0; i < 8; i++ {
		submit("bob", Batch, "B")
	}
	close(g.release)
	gw()
	for _, w := range waits {
		w()
	}

	names := got.snapshot()
	interactive := 0
	for _, n := range names[:10] {
		if n == "I" {
			interactive++
		}
	}
	// Weights 4:1 over the first ten dispatches: all eight interactive
	// jobs and exactly two batch jobs (the stride pattern is
	// deterministic: I B I I I I B I I I ...).
	if interactive != 8 {
		t.Fatalf("first 10 dispatches ran %d interactive jobs, want 8: %v", interactive, names)
	}
	if names[0] != "I" {
		t.Fatalf("first dispatch was %q, want interactive: %v", names[0], names)
	}
}

// TestTenantFairnessWithinClass pins equal sharing inside one class: a
// tenant with a deep backlog alternates with a tenant holding two
// jobs instead of running its whole queue first.
func TestTenantFairnessWithinClass(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 32})
	defer s.Close()
	g := newGate()
	gw := g.hold(t, s)

	var got order
	var waits []func()
	submit := func(tenant, name string) {
		w, err := s.Submit(tenant, Batch, func() { got.add(name) })
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		waits = append(waits, w)
	}
	for i := 0; i < 6; i++ {
		submit("alice", "a")
	}
	submit("bob", "b")
	submit("bob", "b")
	close(g.release)
	gw()
	for _, w := range waits {
		w()
	}

	names := got.snapshot()
	want := []string{"a", "b", "a", "b"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("dispatch order %v, want prefix %v", names, want)
		}
	}
}

// TestPanicIsolation is the pool panic contract under the scheduler
// wrapper: a panicking job rethrows at its waiter and the worker
// survives to run the next job.
func TestPanicIsolation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	wait, err := s.Submit("alice", Interactive, func() { panic("boom") })
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("wait did not rethrow the job panic")
			}
			if fmt.Sprint(r) != "boom" {
				t.Fatalf("panic value %v, want boom", r)
			}
		}()
		wait()
	}()

	ran := make(chan struct{})
	wait, err = s.Submit("alice", Interactive, func() { close(ran) })
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	wait()
	select {
	case <-ran:
	default:
		t.Fatal("worker did not survive the panicking job")
	}
}

// TestCloseWhileSaturated is the pool close contract under the
// scheduler wrapper: Close stops admissions immediately but drains
// every already-queued job before returning.
func TestCloseWhileSaturated(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 4})
	g := newGate()
	g.hold(t, s)

	var executed sync.WaitGroup
	executed.Add(4)
	for i := 0; i < 4; i++ {
		if _, err := s.Submit("alice", Batch, executed.Done); err != nil {
			t.Fatalf("fill submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit("alice", Batch, func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit at cap: %v, want ErrSaturated", err)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Admissions stop as soon as Close marks the scheduler closed,
	// even while the drain is still blocked on the gate.
	deadline := time.After(5 * time.Second)
	for {
		_, err := s.Submit("alice", Batch, func() {})
		if errors.Is(err, ErrClosed) {
			break
		}
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("submit during close: %v", err)
		}
		select {
		case <-deadline:
			t.Fatal("Close never stopped admissions")
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while queued jobs were still blocked")
	default:
	}

	close(g.release)
	executed.Wait() // every queued job ran despite the close
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the drain")
	}
}

// TestRetryAfterPerClass pins the honest per-class backoff: a deep
// interactive backlog inflates interactive Retry-After only, and the
// weighted share splits the workers when both classes are backlogged.
func TestRetryAfterPerClass(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 8})
	defer s.Close()

	if got := s.RetryAfterSeconds(Interactive); got != 1 {
		t.Fatalf("idle interactive retry-after %d, want 1", got)
	}
	if got := s.RetryAfterSeconds(Batch); got != 1 {
		t.Fatalf("idle batch retry-after %d, want 1", got)
	}

	g := newGate()
	gw := g.hold(t, s)
	var waits []func()
	for i := 0; i < 4; i++ {
		w, err := s.Submit("alice", Interactive, func() {})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waits = append(waits, w)
	}
	// Interactive backlog: 4 queued + 1 in flight over its full
	// 1-worker share -> 1 + 5 = 6. Batch is idle and must still say 1.
	if got := s.RetryAfterSeconds(Interactive); got != 6 {
		t.Fatalf("loaded interactive retry-after %d, want 6", got)
	}
	if got := s.RetryAfterSeconds(Batch); got != 1 {
		t.Fatalf("batch retry-after under interactive load %d, want 1", got)
	}

	for i := 0; i < 2; i++ {
		w, err := s.Submit("bob", Batch, func() {})
		if err != nil {
			t.Fatalf("submit batch: %v", err)
		}
		waits = append(waits, w)
	}
	// Both classes backlogged: each gets its weighted share (floored
	// at one worker). Batch: 1 + 2/1 = 3; interactive unchanged.
	if got := s.RetryAfterSeconds(Batch); got != 3 {
		t.Fatalf("contended batch retry-after %d, want 3", got)
	}
	if got := s.RetryAfterSeconds(Interactive); got != 6 {
		t.Fatalf("contended interactive retry-after %d, want 6", got)
	}

	close(g.release)
	gw()
	for _, w := range waits {
		w()
	}
}

// TestSnapshotAndObserver pins the healthz snapshot shape and the
// metrics hooks: class order, sorted active tenants, rejection
// accounting, and wait/depth callbacks firing.
func TestSnapshotAndObserver(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 2})
	defer s.Close()

	var mu sync.Mutex
	depths := map[string]int{}
	rejections := map[Class]int{}
	waitObs := 0
	s.SetObserver(Observer{
		QueueDepth: func(tenant string, class Class, depth int) {
			mu.Lock()
			depths[tenant+"/"+class.String()] = depth
			mu.Unlock()
		},
		Wait: func(class Class, d time.Duration) {
			mu.Lock()
			waitObs++
			mu.Unlock()
		},
		Rejected: func(class Class) {
			mu.Lock()
			rejections[class]++
			mu.Unlock()
		},
	})

	g := newGate()
	gw := g.hold(t, s)
	var waits []func()
	for _, tenant := range []string{"zoe", "ann"} {
		w, err := s.Submit(tenant, Batch, func() {})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waits = append(waits, w)
	}
	if _, err := s.Submit("zoe", Batch, func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatal("batch cap did not reject")
	}
	// The interactive queue has its own cap: batch saturation must not
	// reject interactive admissions.
	w, err := s.Submit("ann", Interactive, func() {})
	if err != nil {
		t.Fatalf("interactive submit under batch saturation: %v", err)
	}
	waits = append(waits, w)

	snap := s.Snapshot()
	if len(snap.Classes) != 2 || snap.Classes[0].Class != "interactive" || snap.Classes[1].Class != "batch" {
		t.Fatalf("snapshot classes: %+v", snap.Classes)
	}
	if snap.Classes[1].Queued != 2 || snap.Classes[1].Rejected != 1 {
		t.Fatalf("batch class status: %+v", snap.Classes[1])
	}
	if snap.Classes[0].Queued != 1 || snap.Classes[0].InFlight != 1 {
		t.Fatalf("interactive class status: %+v", snap.Classes[0])
	}
	wantTenants := []TenantStatus{
		{Tenant: "ann", Class: "interactive", Queued: 1},
		{Tenant: "ann", Class: "batch", Queued: 1},
		{Tenant: "zoe", Class: "batch", Queued: 1},
	}
	if len(snap.Tenants) != len(wantTenants) {
		t.Fatalf("snapshot tenants: %+v", snap.Tenants)
	}
	for i, want := range wantTenants {
		if snap.Tenants[i] != want {
			t.Fatalf("snapshot tenant %d: %+v, want %+v", i, snap.Tenants[i], want)
		}
	}

	close(g.release)
	gw()
	for _, w := range waits {
		w()
	}

	mu.Lock()
	defer mu.Unlock()
	if rejections[Batch] != 1 || rejections[Interactive] != 0 {
		t.Fatalf("rejection observer: %v", rejections)
	}
	if waitObs < 4 { // gate + three drained jobs
		t.Fatalf("wait observer fired %d times, want >= 4", waitObs)
	}
	if d := depths["zoe/batch"]; d != 0 {
		t.Fatalf("zoe/batch final depth %d, want 0", d)
	}
}

// TestTenantValidation pins the tenant identifier rules.
func TestTenantValidation(t *testing.T) {
	for _, ok := range []string{"alice", "team-7", "a.b_c", "X"} {
		if !ValidTenant(ok) {
			t.Errorf("ValidTenant(%q) = false, want true", ok)
		}
	}
	long := make([]byte, MaxTenantLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "semi;colon", "ünïcode", string(long)} {
		if ValidTenant(bad) {
			t.Errorf("ValidTenant(%q) = true, want false", bad)
		}
	}
}

// TestParseClass pins the wire vocabulary round trip.
func TestParseClass(t *testing.T) {
	for _, c := range Classes() {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("premium"); ok {
		t.Fatal("ParseClass accepted an unknown class")
	}
}

// TestSubmitRunsEveryJobWithinTheWorkerBound pins the execution
// contract: every admitted job runs exactly once, and no more than
// Workers jobs ever run at the same time.
func TestSubmitRunsEveryJobWithinTheWorkerBound(t *testing.T) {
	s := New(Options{Workers: 2, Queue: 16})
	defer s.Close()
	var mu sync.Mutex
	ran, running, peak := 0, 0, 0
	var waits []func()
	for i := 0; i < 16; i++ {
		wait, err := s.Submit("alice", Batch, func() {
			mu.Lock()
			running++
			peak = max(peak, running)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			running--
			ran++
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waits = append(waits, wait)
	}
	for _, wait := range waits {
		wait()
	}
	if ran != 16 {
		t.Fatalf("ran %d of 16 jobs", ran)
	}
	if peak > 2 {
		t.Fatalf("%d jobs ran at once on 2 workers", peak)
	}
}

// TestSaturationClearsAfterDrain pins admission control at the class
// cap: a full class queue refuses instead of queueing, and admits again
// once the backlog drains.
func TestSaturationClearsAfterDrain(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 1})
	defer s.Close()
	g := newGate()
	gw := g.hold(t, s)
	w1, err := s.Submit("alice", Interactive, func() {})
	if err != nil {
		t.Fatalf("fill submit: %v", err)
	}
	if _, err := s.Submit("alice", Interactive, func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit at cap: %v, want ErrSaturated", err)
	}
	close(g.release)
	gw()
	w1()
	w2, err := s.Submit("alice", Interactive, func() {})
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	w2()
}

// TestSubmitAfterCloseReturnsErrClosed pins the terminal admission
// error: a closed scheduler refuses with ErrClosed, never
// ErrSaturated, so callers stop retrying.
func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Close()
	if _, err := s.Submit("alice", Interactive, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestInFlightCountsOnlyExecutingJobs pins the load gauges: a job
// waiting for a worker is Queued, not InFlight, and both settle to
// zero once the scheduler drains.
func TestInFlightCountsOnlyExecutingJobs(t *testing.T) {
	s := New(Options{Workers: 2, Queue: 4})
	defer s.Close()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("idle in-flight %d", got)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	var waits []func()
	for i := 0; i < 2; i++ {
		wait, err := s.Submit("alice", Interactive, func() { started <- struct{}{}; <-release })
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
	}
	<-started
	<-started
	wq, err := s.Submit("alice", Interactive, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != 2 {
		t.Fatalf("in-flight %d with both workers held, want 2", got)
	}
	if got := s.Queued(); got != 1 {
		t.Fatalf("queued %d, want 1", got)
	}
	close(release)
	for _, wait := range waits {
		wait()
	}
	wq()
	// A waiter returns after its job's slot is freed, so the drained
	// gauges read zero without polling.
	if got, q := s.InFlight(), s.Queued(); got != 0 || q != 0 {
		t.Fatalf("drained in-flight %d queued %d", got, q)
	}
	if a, c := s.Admitted(), s.Completed(); a != 3 || c != 3 {
		t.Fatalf("admitted %d completed %d, want 3 and 3", a, c)
	}
}

// TestJobPanicSurfacesOnWait pins the panic contract on a queued job:
// a job that panics behind another one rethrows at its own waiter,
// the job ahead of it is untouched, and the worker keeps serving.
func TestJobPanicSurfacesOnWait(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 4})
	defer s.Close()
	g := newGate()
	gw := g.hold(t, s)
	wait, err := s.Submit("alice", Batch, func() { panic("kaboom") })
	if err != nil {
		t.Fatal(err)
	}
	close(g.release)
	gw() // the gate job ahead of the panic returns normally
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "kaboom") {
				t.Errorf("recovered %v", r)
			}
		}()
		wait()
	}()
	w2, err := s.Submit("alice", Batch, func() {})
	if err != nil {
		t.Fatal(err)
	}
	w2()
}

// TestCloseRacesSaturatedSubmitters races Close against a crowd of
// submitters hammering a saturated scheduler. The invariants, best
// exercised under -race: no Submit panics, every admitted job runs
// (its wait returns), and Close itself returns.
func TestCloseRacesSaturatedSubmitters(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 1})
	g := newGate()
	gw := g.hold(t, s)
	// Fill the class queue so every submitter below lands on the
	// saturated path while Close races them.
	w1, err := s.Submit("alice", Batch, func() {})
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 8
	var (
		wg       sync.WaitGroup
		rejected atomic.Int64
		mu       sync.Mutex
		waits    []func()
	)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Bounded spin: enough iterations to straddle the
			// saturated phase, the drain and the Close.
			for n := 0; n < 5000; n++ {
				wait, err := s.Submit("alice", Batch, func() {})
				switch {
				case err == nil:
					mu.Lock()
					waits = append(waits, wait)
					mu.Unlock()
				case errors.Is(err, ErrSaturated):
					rejected.Add(1)
				default:
					// Closed: the terminal state every submitter
					// lands in once Close wins the race.
					return
				}
			}
		}()
	}

	time.Sleep(10 * time.Millisecond) // submitters hammer the full queue
	close(g.release)                  // free the worker
	// Guarantee at least one post-drain admission before Close joins
	// the race.
	for {
		if wait, err := s.Submit("alice", Batch, func() {}); err == nil {
			mu.Lock()
			waits = append(waits, wait)
			mu.Unlock()
			break
		}
	}
	s.Close()
	wg.Wait()

	gw()
	w1()
	mu.Lock()
	defer mu.Unlock()
	for _, wait := range waits {
		wait()
	}
	if rejected.Load() == 0 {
		t.Error("saturation path never exercised")
	}
	if len(waits) == 0 {
		t.Error("admission path never exercised")
	}
}
