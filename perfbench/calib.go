package main

import (
	"sort"
	"time"
)

// The reference host is a 2-vCPU virtual machine whose physical cores
// are shared with other tenants. Steal time is near zero, yet the same
// kernel run (the TLM speed spec at 2000 transactions per master) takes
// 1.5 ms or 3 ms depending on what the neighbours do, in states that
// last from a tenth of a second to several seconds.
// Medians and means over a run follow the neighbours. Two things follow
// the program instead:
//
//   - the fast end of a run (fastP), where the neighbours were quiet;
//   - a fixed probe timed between operations: when the host is slow,
//     the probe's fast end is slow too, and dividing by it cancels most
//     of the drift that remains. Not all of it: the serving workloads
//     slow down somewhat more than the probe does.
//
// So every gated speed figure is a fast-end time of the program scaled
// by probeNominalUs over the probe's fast end in the same run, both
// taken at the same percentile.

// fastP is the percentile a fast-end figure is taken at.
const fastP float64 = 10

// pairFastP is the fast-end percentile of operations that keep both
// cores busy at once (a sweep-cold request simulates on both workers).
// Such an operation is fast only while both cores are quiet, which is
// rarer than one core being quiet, so at the 10th percentile it still
// carries contention the single-threaded probe does not see; at the
// 25th the two match better. Sets of five to eight seeds on the
// reference host spread 0.03-0.10 at the 10th and 0.03-0.04 at the
// 25th (interquartile range over median).
const pairFastP float64 = 25

// probeNominalUs is the probe's fast end on the reference host when it
// is quiet. It only sets the unit: normalized figures read as the
// reference host would show them undisturbed.
const probeNominalUs = 150

// probeSteps sizes one probe (about 150 µs on the reference host).
const probeSteps = 2000

// probeEvent is one event of the probe's little event-driven model.
type probeEvent struct {
	at, id, kind uint32
}

// probe is a fixed, deterministic piece of work in the kernel's style
// (a priority queue of events, a table of state, branches on both). It
// allocates nothing after its first use, so its time does not depend on
// the heap of the program under test. Its table is 4 KB, one page:
// with a Go map, or a 64 KB table, the probe's fast end moved by up to
// a half from one process to the next on a quiet host, with the hash
// seed and the physical pages the process happened to get.
type probe struct {
	q     []probeEvent // binary min-heap on (at, id)
	state []uint32
	sink  uint64
	times []float64 // µs
}

// probeStates is the size of the probe's state table.
const probeStates = 1 << 10

func newProbe() *probe {
	return &probe{q: make([]probeEvent, 0, 64), state: make([]uint32, probeStates)}
}

// sample times one probe.
func (p *probe) sample() {
	t := time.Now()
	p.sink += p.run()
	p.times = append(p.times, us(time.Since(t)))
}

// scale is the factor that turns a time of this run at percentile pct
// into the reference host's time: probeNominalUs over the probe's own
// time at pct. 1 when no probe ran.
func (p *probe) scale(pct float64) float64 {
	if len(p.times) == 0 {
		return 1
	}
	return probeNominalUs / percentile(sortedCopy(p.times), pct)
}

func (p *probe) run() uint64 {
	clear(p.state)
	p.q = p.q[:0]
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return uint32(x)
	}
	for i := uint32(0); i < 16; i++ {
		p.push(probeEvent{at: rnd() % 16, id: i})
	}
	var sum uint64
	for step := 0; step < probeSteps; step++ {
		e := p.pop()
		k := (e.id<<6 | e.at%61) % probeStates
		p.state[k] += e.at | 1
		v := p.state[k]
		switch {
		case e.kind == 0 && v&3 == 0:
			sum += uint64(v)
			p.push(probeEvent{at: e.at + 1 + rnd()%3, id: e.id, kind: 1})
		case e.kind == 0:
			sum ^= uint64(k)
			p.push(probeEvent{at: e.at + 2 + rnd()%5, id: e.id})
		default:
			sum += uint64(e.at)
			p.push(probeEvent{at: e.at + 1 + rnd()%7, id: e.id})
		}
	}
	return sum
}

func (p *probe) less(i, j int) bool {
	a, b := p.q[i], p.q[j]
	return a.at < b.at || a.at == b.at && a.id < b.id
}

func (p *probe) push(e probeEvent) {
	p.q = append(p.q, e)
	for i := len(p.q) - 1; i > 0; {
		up := (i - 1) / 2
		if !p.less(i, up) {
			break
		}
		p.q[i], p.q[up] = p.q[up], p.q[i]
		i = up
	}
}

func (p *probe) pop() probeEvent {
	top := p.q[0]
	n := len(p.q) - 1
	p.q[0] = p.q[n]
	p.q = p.q[:n]
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < n && p.less(l, s) {
			s = l
		}
		if l+1 < n && p.less(l+1, s) {
			s = l + 1
		}
		if s == i {
			break
		}
		p.q[i], p.q[s] = p.q[s], p.q[i]
		i = s
	}
	return top
}

// opKinds collects per-operation times (µs) by kind, for a fast-end
// figure of a mix of operations.
type opKinds map[string][]float64

func (k opKinds) add(kind string, t float64) { k[kind] = append(k[kind], t) }

// fast is the fast-end time of the mix: each kind's fastP percentile,
// weighted by its count per unit of work (weights), scaled by the
// probe. The kinds are summed in name order so the figure is exact to
// the last digit for the same samples.
func (k opKinds) fast(weights map[string]float64, scale float64) float64 {
	names := make([]string, 0, len(weights))
	for n := range weights {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := 0.0
	for _, n := range names {
		sum += weights[n] * percentile(sortedCopy(k[n]), fastP)
	}
	return sum * scale
}
