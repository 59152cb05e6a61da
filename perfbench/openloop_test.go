package main

import (
	"testing"
	"time"
)

// simClock is a single-sender simulated clock: sleeping jumps forward,
// and sends advance time by their service time.
type simClock struct{ t time.Duration }

func (c *simClock) now() time.Duration { return c.t }

func (c *simClock) sleepUntil(t time.Duration) { c.t = max(c.t, t) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	clk := &simClock{}
	dues := dueTimes(1000, 5) // one per ms
	if dues[4] != 4*ms {
		t.Fatalf("dues = %v", dues)
	}
	// Request 1 stalls for 3.5 ms; 2 and 3 queue behind it.
	service := []time.Duration{ms / 2, 7 * ms / 2, ms / 2, ms / 2, ms / 2}
	shots := openLoop(clk, dues, 1, func(i int) bool { clk.t += service[i]; return true })
	wantLat := []time.Duration{ms / 2, 7 * ms / 2, 3 * ms, 5 * ms / 2, 2 * ms}
	wantLate := []time.Duration{0, 0, 5 * ms / 2, 2 * ms, 3 * ms / 2}
	for i, s := range shots {
		if s.latency() != wantLat[i] || s.late() != wantLate[i] {
			t.Errorf("shot %d: latency %v late %v, want %v and %v",
				i, s.latency(), s.late(), wantLat[i], wantLate[i])
		}
	}
}

func TestOpenLoopNeverSendsEarly(t *testing.T) {
	clk := wallClock{origin: time.Now()}
	dues := dueTimes(2000, 20)
	shots := openLoop(clk, dues, 2, func(int) bool { return true })
	for i, s := range shots {
		if s.Start < s.Due || !s.OK {
			t.Fatalf("shot %d started %v before due %v", i, s.Start, s.Due)
		}
	}
}

func TestJudgeStepCountsFailuresAndBacklog(t *testing.T) {
	ms := time.Millisecond
	var ok []shot
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * ms
		ok = append(ok, shot{Due: due, Start: due, End: due + ms/2, OK: true})
	}
	if st := judgeStep(1000, ok, 2*ms); !st.Pass || st.Lat.TailP != 90 {
		t.Fatalf("steady rung: %+v", st)
	}
	failed := append([]shot(nil), ok...)
	failed[3].OK = false
	if st := judgeStep(1000, failed, 2*ms); st.Pass || st.Failed != 1 {
		t.Fatalf("a failed request must miss the limit: %+v", st)
	}
	// Lateness growing by 1 ms per request: the last quarter runs
	// far behind schedule, a growing backlog.
	growing := append([]shot(nil), ok...)
	for i := range growing {
		lag := time.Duration(i) * ms
		growing[i].Start += lag
		growing[i].End += lag
	}
	if st := judgeStep(1000, growing, 20*ms); st.Pass || !st.Backlog {
		t.Fatalf("growing backlog must fail the rung: %+v", st)
	}
}

func TestMaxRateAtSLOInterpolates(t *testing.T) {
	limit := 1000 * time.Microsecond
	rung := func(rate, tail float64, pass bool) step {
		return step{Rate: rate, Lat: summary{Tail: tail}, Pass: pass}
	}
	steps := []step{rung(100, 100, true), rung(200, 500, true), rung(400, 2000, false), rung(800, 9000, false)}
	// log-scale crossing of 1000 between 500 and 2000 is halfway.
	if got := maxRateAtSLO(steps, limit); got != 300 {
		t.Fatalf("maxRateAtSLO = %v, want 300", got)
	}
	if got := maxRateAtSLO(steps[:2], limit); got != 200 {
		t.Fatalf("all rungs passing: %v, want the top rate", got)
	}
	steps[2].Failed = 1
	if got := maxRateAtSLO(steps, limit); got != 200 {
		t.Fatalf("failures above: %v, want the last passing rate", got)
	}
	if got := maxRateAtSLO([]step{rung(100, 5000, false)}, limit); got != 0 {
		t.Fatalf("no rung passing: %v, want 0", got)
	}
	// A noisy low rung does not hide a higher passing one.
	noisy := []step{rung(100, 3000, false), rung(200, 500, true), rung(400, 2000, false)}
	if got := maxRateAtSLO(noisy, limit); got != 300 {
		t.Fatalf("noisy low rung: %v, want 300", got)
	}
}
