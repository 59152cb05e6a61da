package sweep

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/spec"
)

// referenceWalk is Walk without its shortcuts: every variant is
// applied, validated in full and hashed twice (named, then unnamed for
// the dedup key), exactly as the engine did before it memoized
// footprints and encoded once. It emits one line per fn call of Walk.
func referenceWalk(g Grid) ([]string, error) {
	total, err := g.Total()
	if err != nil {
		return nil, err
	}
	prefix := g.Name
	if prefix == "" {
		prefix = g.Base.Name
	}
	var out []string
	seen := map[string]bool{}
	idx := make([]int, len(g.Axes))
	for n := 0; n < total; n++ {
		s := g.Base.Clone()
		labels := make([]string, len(g.Axes))
		slugs := []string{prefix}
		var buildErr error
		for a, ax := range g.Axes {
			v := ax.Values[idx[a]]
			label, slug := v.Label, v.Slug
			if label == "" {
				label = fmt.Sprintf("%v", v.V)
			}
			if slug == "" {
				slug = strings.ReplaceAll(label, "/", "-")
			}
			labels[a] = label
			slugs = append(slugs, slug)
			if buildErr == nil {
				if err := Apply(&s, ax.Param, v.V); err != nil {
					buildErr = fmt.Errorf("sweep: axis %q value %v: %w", ax.Param, v.V, err)
				}
			}
		}
		s.Name = strings.Join(slugs, "/")
		if buildErr == nil {
			if err := s.Validate(); err != nil {
				buildErr = fmt.Errorf("sweep: variant %s: %w", s.Name, err)
			}
		}
		var hash, workload string
		if buildErr == nil {
			hash, buildErr = s.Hash()
		}
		if buildErr == nil {
			unnamed := s
			unnamed.Name = ""
			workload, buildErr = unnamed.Hash()
		}
		switch {
		case buildErr != nil:
			out = append(out, walkLine(n, labels, "", buildErr))
		case !seen[workload]:
			seen[workload] = true
			out = append(out, walkLine(n, labels, hash, nil))
		}
		for a := len(g.Axes) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(g.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return out, nil
}

func walkLine(index int, labels []string, hash string, err error) string {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return fmt.Sprintf("%d %q %s %q", index, labels, hash, msg)
}

func walkLines(g Grid) ([]string, error) {
	var out []string
	err := g.Walk(func(v Variant, err error) error {
		hash := v.Hash
		if err != nil {
			hash = ""
		}
		out = append(out, walkLine(v.Index, v.Labels, hash, err))
		return nil
	})
	return out, err
}

// axisPool holds candidate values per parameter: traffic values that
// make masters overlap (count 20000 walks master 0 into master 1),
// fail validation (count 0, over MaxCount) or fail to build (a mix
// with another master count, a bus width that is not a power of two),
// beside ordinary non-traffic values and a few invalid ones.
var axisPool = map[string][]any{
	ParamMix:              {"seq/read-dominant", "rand/rt-mixed", "burst/write-heavy", "seq/rt-mixed", "speed/single"},
	ParamCount:            {float64(40), float64(150), float64(20000), float64(0), float64(spec.MaxCount + 1)},
	ParamBusBytes:         {float64(4), float64(8), float64(16), float64(3)},
	ParamWriteBufferDepth: {float64(0), float64(2), float64(8), float64(-1)},
	ParamPipelining:       {true, false},
	ParamBIEnabled:        {true, false},
	ParamClosedPage:       {true, false},
	ParamFilters:          {"all", "rr-only"},
	ParamUrgencyThreshold: {float64(1), float64(37), float64(301)},
	ParamMaxCycles:        {float64(0), float64(1 << 20), float64(spec.MaxRunCycles + 1)},
}

func randomGrid(r *rand.Rand) Grid {
	params := make([]string, 0, len(axisPool))
	for p := range axisPool {
		params = append(params, p)
	}
	slices.Sort(params) // map order is random; the grid must follow the seed
	bases := []string{"seq/read-dominant", "rand/rt-mixed", "burst/read-dominant", "stream/write-heavy"}
	base, err := spec.ByName(bases[r.IntN(len(bases))])
	if err != nil {
		panic(err)
	}
	g := Grid{Name: "diff/grid", Base: base}
	for range 2 + r.IntN(3) {
		p := params[r.IntN(len(params))]
		pool := axisPool[p]
		var vals []Value
		for _, i := range r.Perm(len(pool))[:1+r.IntN(min(3, len(pool)))] {
			vals = append(vals, Value{V: pool[i]})
		}
		g.Axes = append(g.Axes, Axis{Param: p, Values: vals})
	}
	return g
}

// TestWalkMatchesReferenceLoop is the differential test of Walk's
// shortcuts (footprints memoized per traffic shape, one canonical
// encoding per variant): over seeded random grids mixing traffic and
// non-traffic axes, Walk reports the same sequence of index, labels,
// hash and error text as the plain per-variant loop.
func TestWalkMatchesReferenceLoop(t *testing.T) {
	overlaps, failures := 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		g := randomGrid(rand.New(rand.NewPCG(seed, 13)))
		want, werr := referenceWalk(g)
		got, gerr := walkLines(g)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Fatalf("seed %d: walk error %v, reference %v", seed, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: walk %d lines, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d line %d:\n walk      %s\n reference %s", seed, i, got[i], want[i])
			}
			if strings.Contains(got[i], "overlapping") {
				overlaps++
			}
			if !strings.HasSuffix(got[i], `""`) {
				failures++
			}
		}
	}
	t.Logf("%d overlap errors among %d failures", overlaps, failures)
	// The seeds must exercise the memoized verdict both ways.
	if overlaps == 0 || failures == overlaps {
		t.Fatalf("grids produced %d overlap errors among %d failures; want both kinds", overlaps, failures)
	}
}

// TestNonTrafficParamsLeaveTrafficAlone guards the footprint memo's
// key: Walk reuses one footprint verdict across every variant that
// agrees on its traffic axes, which is sound only while no other
// parameter touches Masters, Params.BusBytes or Params.AddrMap. Every
// Param constant declared in sweep.go is checked, so a new axis that
// changes traffic fails here until it joins trafficParams.
func TestNonTrafficParamsLeaveTrafficAlone(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sweep.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var params []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, sp := range gd.Specs {
			vs := sp.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Param") || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					p, _ := strconv.Unquote(lit.Value)
					params = append(params, p)
				}
			}
		}
	}
	if len(params) < 10 {
		t.Fatalf("found %d Param constants in sweep.go: %v", len(params), params)
	}
	candidates := []any{float64(0), float64(1), float64(8), float64(16), float64(1 << 20), true, false,
		"all", "rr-only", "seq/read-dominant", "rand/rt-mixed"}
	for _, p := range params {
		if trafficParams[p] {
			continue
		}
		applied := 0
		for _, v := range candidates {
			base, _ := spec.ByName("rand/rt-mixed")
			s := base.Clone()
			if Apply(&s, p, v) != nil {
				continue
			}
			applied++
			if !reflect.DeepEqual(s.Masters, base.Masters) || s.Params.BusBytes != base.Params.BusBytes ||
				s.Params.AddrMap != base.Params.AddrMap {
				t.Errorf("Apply(%s, %v) changed the traffic; add %s to trafficParams", p, v, p)
			}
		}
		if applied == 0 {
			t.Errorf("no candidate value applies to %s; extend the candidates", p)
		}
	}
}

// BenchmarkGridWalk walks the warm-sweep benchmark's sub-grid shape:
// six library mixes x two write-buffer depths x pipelining x bank
// interleaving x two urgency thresholds (96 variants), with values in
// their wire (float64) form. The reported figure is per variant.
func BenchmarkGridWalk(b *testing.B) {
	base, err := spec.ByName("seq/read-dominant")
	if err != nil {
		b.Fatal(err)
	}
	vals := func(vs ...any) []Value {
		out := make([]Value, len(vs))
		for i, v := range vs {
			out[i] = Value{V: v}
		}
		return out
	}
	g := Grid{Name: "bench/warm", Base: base, Axes: []Axis{
		{Param: ParamMix, Values: vals("seq/read-dominant", "seq/rt-mixed", "rand/write-heavy",
			"burst/read-dominant", "burst/rt-mixed", "stream/write-heavy")},
		{Param: ParamWriteBufferDepth, Values: vals(float64(1), float64(8))},
		{Param: ParamPipelining, Values: vals(true, false)},
		{Param: ParamBIEnabled, Values: vals(true, false)},
		{Param: ParamUrgencyThreshold, Values: vals(float64(37), float64(301))},
	}}
	total, _ := g.Total()
	b.ReportAllocs()
	for b.Loop() {
		n := 0
		if err := g.Walk(func(_ Variant, err error) error { n++; return err }); err != nil || n != total {
			b.Fatalf("walk: %d variants, %v", n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/variant")
}
