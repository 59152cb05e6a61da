package farm

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	out := Map(4, 100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	Do(workers, 64, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, bound %d", p, workers)
	}
}

func TestDoRunsEveryJobExactlyOnce(t *testing.T) {
	counts := make([]atomic.Int64, 500)
	Do(0, len(counts), func(i int) { counts[i].Add(1) })
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("job %d ran %d times", i, counts[i].Load())
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	Do(4, 0, func(int) { t.Fatal("no job should run") })
}

func TestDoSerialFallback(t *testing.T) {
	var order []int
	Do(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

func TestDoPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic payload %v", r)
		}
	}()
	Do(4, 16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestPairRunsBoth(t *testing.T) {
	var a, b bool
	Pair(func() { a = true }, func() { b = true })
	if !a || !b {
		t.Fatalf("a=%v b=%v", a, b)
	}
}
