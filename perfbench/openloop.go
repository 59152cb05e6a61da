package main

import (
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the open loop's time source, offsets from the loop's start;
// tests substitute a simulated one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ origin time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.origin) }

// sleepUntil blocks in nanosleep rather than time.Sleep: the runtime's
// timers wake through the network poller at millisecond granularity,
// which would make every request up to a millisecond late.
func (c wallClock) sleepUntil(t time.Duration) {
	for {
		d := t - c.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// shot is one open-loop request: when it was due, when a sender
// actually started it, when it completed, and whether it succeeded.
type shot struct {
	Due, Start, End time.Duration
	OK              bool
}

// latency is timed from the due time, so a stall that holds up later
// requests is charged to them too (no coordinated omission).
func (s shot) latency() time.Duration { return s.End - s.Due }

// late is how far behind schedule the request was sent.
func (s shot) late() time.Duration { return s.Start - s.Due }

// dueTimes spaces n requests evenly at rate per second.
func dueTimes(rate float64, n int) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) * float64(time.Second) / rate)
	}
	return dues
}

// openLoop sends request i no earlier than dues[i], over conns
// senders that take requests in due order. A request whose due time
// passes while every sender is busy goes out as soon as one frees up,
// and its lateness counts in its latency.
func openLoop(clk clock, dues []time.Duration, conns int, send func(i int) bool) []shot {
	shots := make([]shot, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				clk.sleepUntil(dues[i])
				start := clk.now()
				ok := send(i)
				shots[i] = shot{Due: dues[i], Start: start, End: clk.now(), OK: ok}
			}
		}()
	}
	wg.Wait()
	return shots
}

// step is the verdict on one rung of the rate ladder.
type step struct {
	Rate    float64
	Lat     summary // microseconds from due time; failures count as +Inf
	Late    summary // microseconds behind schedule at send
	Failed  int
	Backlog bool // the last quarter ran later than the limit: the queue grew
	Pass    bool
}

// tailWindow is the window, in requests, over which a rung's tail
// latency is taken (see windowedTail): its p95, with 25 samples beyond.
const tailWindow = 500

// judgeStep summarizes a rung and decides whether it met the latency
// limit on its tail percentile with no failures and no growing backlog.
func judgeStep(rate float64, shots []shot, limit time.Duration) step {
	st := step{Rate: rate}
	lat := make([]float64, len(shots))
	late := make([]float64, len(shots))
	for i, s := range shots {
		lat[i], late[i] = us(s.latency()), us(s.late())
		if !s.OK {
			st.Failed++
			lat[i] = math.Inf(1)
		}
	}
	st.Lat, st.Late = windowedTail(lat, tailWindow), summarize(late)
	if q := len(late) / 4; q > 0 {
		st.Backlog = median(late[len(late)-q:]) > us(limit)
	}
	st.Pass = st.Failed == 0 && !st.Backlog && st.Lat.Tail <= us(limit)
	return st
}

// maxRateAtSLO is the highest rate the ladder sustained: its highest
// passing rung (one noisy rung below it does not hide it), interpolated
// toward the next rung by where the tail latency (log scale) crosses
// the limit, so the figure moves smoothly with capacity instead of
// jumping a whole rung. 0 when no rung passed.
func maxRateAtSLO(steps []step, limit time.Duration) float64 {
	k := -1
	for i, st := range steps {
		if st.Pass {
			k = i
		}
	}
	if k < 0 {
		return 0
	}
	lo := steps[k]
	if k+1 == len(steps) {
		return lo.Rate
	}
	hi := steps[k+1]
	if hi.Failed > 0 || math.IsInf(hi.Lat.Tail, 0) || hi.Lat.Tail <= lo.Lat.Tail {
		return lo.Rate
	}
	f := (math.Log(us(limit)) - math.Log(lo.Lat.Tail)) / (math.Log(hi.Lat.Tail) - math.Log(lo.Lat.Tail))
	f = math.Max(0, math.Min(1, f))
	return lo.Rate + f*(hi.Rate-lo.Rate)
}
