package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// draw generates a run's worth of inputs of every kind from one seed.
func draw(t *testing.T, seed int64) []string {
	t.Helper()
	var out []string
	cold := newColdGen(seed)
	for k := 0; k < 5; k++ {
		out = append(out, mustJSON(t, cold.request(k)))
	}
	warm := newWarmGen(seed)
	out = append(out, mustJSON(t, warm.prefill()))
	for k := 0; k < 5; k++ {
		out = append(out, mustJSON(t, warm.next()))
	}
	keys, err := newRunKeys(seed, 16, 500)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mustJSON(t, keys))
	held, err := newHeldOutGen(seed)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		s, err := held.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mustJSON(t, s))
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := draw(t, 7), draw(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed generated two different input sets")
	}
	if reflect.DeepEqual(a, draw(t, 8)) {
		t.Fatal("two seeds generated the same inputs")
	}
}

func TestColdGridsDisjointAcrossSeeds(t *testing.T) {
	hashes := map[string]int64{}
	for _, seed := range []int64{1, 2, 1 << 40} {
		g := newColdGen(seed)
		for k := 0; k < 2; k++ {
			vs, err := expand(g.request(k))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				if other, dup := hashes[v.Hash]; dup {
					t.Fatalf("seed %d request %d repeats a variant of seed %d", seed, k, other)
				}
				hashes[v.Hash] = seed
			}
		}
	}
}

func TestColdUrgencyNeverRepeats(t *testing.T) {
	seen := map[int]int64{}
	for _, seed := range []int64{3, 4} {
		g := newColdGen(seed)
		for k := 0; k < 200000; k++ {
			u := g.urgency(k)
			if _, dup := seen[u]; dup {
				t.Fatalf("seed %d draw %d repeats urgency %d", seed, k, u)
			}
			seen[u] = seed
		}
	}
}

func TestWarmSubGridsStayInsidePrefill(t *testing.T) {
	g := newWarmGen(5)
	pre, err := expand(g.prefill())
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string]bool{}
	for _, v := range pre {
		stored[v.Hash] = true
	}
	if len(stored) <= 1024 {
		t.Fatalf("prefill has %d variants; it must outgrow the 1024-entry memory cache", len(stored))
	}
	for k := 0; k < 3; k++ {
		vs, err := expand(g.next())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if !stored[v.Hash] {
				t.Fatalf("sub-grid %d variant %s was never prefilled", k, v.Spec.Name)
			}
		}
	}
}

func TestRunKeysFreshShare(t *testing.T) {
	keys, err := newRunKeys(9, 16, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if f := float64(len(keys.Fresh)) / float64(len(keys.Seq)); f < 0.09 || f > 0.11 {
		t.Fatalf("fresh share %.3f, want about one in %d", f, freshEvery)
	}
	seen := map[int]bool{}
	for _, ref := range keys.Seq {
		if ref.Fresh {
			if seen[ref.Idx] {
				t.Fatalf("fresh key %d asked for twice", ref.Idx)
			}
			seen[ref.Idx] = true
		}
	}
}
