package main

import "testing"

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // rank 9990: 10 beyond
		{9999, 99},    // p99.9 would leave only 9 beyond
		{1000, 99},    // rank 990: 10 beyond
		{999, 95},
		{200, 95}, // rank 190: 10 beyond
		{100, 90},
		{40, 75},
		{20, 50},
		{5, 50}, // too few for any tail: the median stands in
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - nearestRank(c.want, c.n); beyond < tailBeyond {
				t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, c.want, beyond)
			}
		}
	}
}

func TestSummarizeReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, unsorted
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailP != 99 || s.Tail != 990 || s.Median != 500.5 {
		t.Fatalf("summarize = %+v", s)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
	if got := s.String(); got != "p50=500.5 p99=990 (n=1000)" {
		t.Fatalf("String = %q", got)
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 1000) // each window holds 0..999
	}
	for i := 0; i < 100; i++ {
		xs[i] = 1e6 // a stall at the start spoils the first window only
	}
	s := windowedTail(xs, 1000)
	if s.N != 3000 || s.TailP != 99 || s.Tail != 989 {
		t.Fatalf("windowedTail = %+v", s)
	}
	if plain := summarize(xs); plain.Tail != 1e6 {
		t.Fatalf("plain tail = %v, want the stall", plain.Tail)
	}
	if short := windowedTail(xs[:1500], 1000); short != summarize(xs[:1500]) {
		t.Fatal("fewer than two windows must fall back to the plain summary")
	}
}
