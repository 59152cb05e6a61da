package main

import (
	"math"
	"testing"
)

func TestFastWeighsKindsAtTheirFastEndAndScales(t *testing.T) {
	ops := opKinds{}
	for i := 100; i >= 1; i-- { // arrival order must not matter
		ops.add("router_hit", float64(i))
		ops.add("backend_hit", float64(1000+i))
	}
	// p10 of 1..100 is 10, of 1001..1100 is 1010.
	want := (0.9*10 + 0.1*1010) * 2
	if got := ops.fast(map[string]float64{"router_hit": 0.9, "backend_hit": 0.1}, 2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("fast = %v, want %v", got, want)
	}
	// A kind the weights do not name does not count.
	if got := ops.fast(map[string]float64{"router_hit": 1}, 1); got != 10 {
		t.Fatalf("one kind: %v, want 10", got)
	}
}

func TestProbeIsFixedWorkThatAllocatesNothing(t *testing.T) {
	p := newProbe()
	first := p.run()
	if again := p.run(); again != first {
		t.Fatalf("probe not deterministic: %d then %d", first, again)
	}
	if a := testing.AllocsPerRun(20, func() { p.run() }); a != 0 {
		t.Fatalf("probe allocates %v per run, want 0", a)
	}
}

func TestScaleIsNominalOverTheProbeFastEnd(t *testing.T) {
	p := newProbe()
	if p.scale(fastP) != 1 {
		t.Fatalf("scale without samples = %v, want 1", p.scale(fastP))
	}
	for i := 1; i <= 100; i++ {
		p.times = append(p.times, float64(2*probeNominalUs+i))
	}
	// p10 of nominal*2+1 .. nominal*2+100 is nominal*2+10.
	if got, want := p.scale(10), probeNominalUs/float64(2*probeNominalUs+10); got != want {
		t.Fatalf("scale = %v, want %v", got, want)
	}
}
