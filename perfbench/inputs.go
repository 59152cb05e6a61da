package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Everything a workload sends is generated here from the run's seed;
// the program under test only ever sees the generated requests. Each
// purpose draws from its own stream, so adding draws to one cannot
// shift another's inputs.
const (
	streamCold uint64 = iota + 1
	streamWarm
	streamKeys
	streamHeldOut
	streamCheck
)

func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// table1Names are the 12 Table 1 scenarios, the "mix" axis values.
func table1Names() []string {
	var names []string
	for _, s := range spec.Table1Specs() {
		names = append(names, s.Name)
	}
	return names
}

func axis(param string, values ...any) service.SweepAxis {
	return service.SweepAxis{Param: param, Values: values}
}

func anys[T any](xs []T) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

// baseScenario is the platform every generated grid starts from.
const baseScenario = "seq/read-dominant"

// coldGen draws the urgency values of sweep-cold's grids. Values live
// in a window of 2^21 owned by the seed (seed mod 2^20), visited in an
// order drawn from the seed with no repeats, so no two requests of one
// run share a variant and two seeds never share a grid.
type coldGen struct {
	base, mul, add uint64
}

const (
	coldWindow = 1 << 21
	coldCount  = 2400
)

func newColdGen(seed int64) coldGen {
	r := rngFor(seed, streamCold)
	return coldGen{
		base: (1 + uint64(seed)%(1<<20)) * coldWindow,
		mul:  r.Uint64()%coldWindow | 1, // odd: a bijection mod 2^21
		add:  r.Uint64() % coldWindow,
	}
}

func (g coldGen) urgency(k int) int {
	return int(g.base + (g.mul*uint64(k)+g.add)%coldWindow)
}

// request k of the closed loop: the 12 mixes at one fresh urgency
// value = 12 variants, all misses on a fresh cluster, with the
// write-buffer depth, pipelining and BI of the request cycling through
// their 8 combinations. A request is short (about 30 ms), so some
// requests fall where the host's neighbours are quiet and the fast end
// is the program's (see calib.go). The mixes run at coldCount
// transactions per master, 16 times Table 1's. At Table 1's size a
// row's disk write (store.Put) costs more than its simulation, and the
// reference host's disk makes that write vary by a quarter from one
// run to the next; at this size simulation is most of a row.
func (g coldGen) request(k int) service.SweepRequest {
	return service.SweepRequest{
		Scenario: baseScenario,
		Name:     "bench/cold",
		Model:    "tl",
		Axes: []service.SweepAxis{
			axis(sweep.ParamMix, anys(table1Names())...),
			axis(sweep.ParamWriteBufferDepth, []int{0, 4}[k&1]),
			axis(sweep.ParamCount, coldCount),
			axis(sweep.ParamPipelining, k&2 != 0),
			axis(sweep.ParamBIEnabled, k&4 != 0),
			axis(sweep.ParamUrgencyThreshold, g.urgency(k)),
		},
	}
}

// warmGen draws sweep-warm's prefill grid and the sub-grids queried
// against it. The prefill is 12 x 5 x 2 x 2 x 5 = 1200 variants, more
// than the worker's 1024-entry memory LRU, so queries hit both tiers.
type warmGen struct {
	depths, urgencies []int
	r                 *rand.Rand
}

func newWarmGen(seed int64) *warmGen {
	r := rngFor(seed, streamWarm)
	g := &warmGen{depths: []int{0, 1, 2, 4, 8}, r: r}
	for _, u := range r.Perm(512)[:5] {
		g.urgencies = append(g.urgencies, u+1)
	}
	slices.Sort(g.urgencies)
	return g
}

func (g *warmGen) grid(mixes []string, depths, urgencies []int) service.SweepRequest {
	return service.SweepRequest{
		Scenario: baseScenario,
		Name:     "bench/warm",
		Model:    "tl",
		Axes: []service.SweepAxis{
			axis(sweep.ParamMix, anys(mixes)...),
			axis(sweep.ParamWriteBufferDepth, anys(depths)...),
			axis(sweep.ParamPipelining, true, false),
			axis(sweep.ParamBIEnabled, true, false),
			axis(sweep.ParamUrgencyThreshold, anys(urgencies)...),
		},
	}
}

func (g *warmGen) prefill() service.SweepRequest {
	return g.grid(table1Names(), g.depths, g.urgencies)
}

// warmVariants is the size of every sub-grid next draws.
const warmVariants = 6 * 2 * 2 * 2 * 2

// next draws a sub-grid: 6 of the 12 mixes, 2 of the 5 depths and 2 of
// the 5 urgency values (warmVariants), each subset kept in prefill
// order so every variant hash is one the prefill stored.
func (g *warmGen) next() service.SweepRequest {
	return g.grid(subset(g.r, table1Names(), 6), subset(g.r, g.depths, 2), subset(g.r, g.urgencies, 2))
}

// subset picks k of xs at random, preserving their order.
func subset[T any](r *rand.Rand, xs []T, k int) []T {
	idx := r.Perm(len(xs))[:k]
	slices.Sort(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// runKeys is cluster-run's working set: router keys the router has
// relayed once during set-up, fresh keys only their owner worker holds,
// and the order the load asks for them.
type runKeys struct {
	Router [][]byte // /run request bodies
	// Fresh are drawn from FreshGrid, which set-up sweeps through a
	// second router so each lands at its owner worker only.
	Fresh     [][]byte
	FreshGrid service.SweepRequest
	Seq       []keyRef
}

type keyRef struct {
	Fresh bool
	Idx   int
}

const (
	// freshEvery: about one request in this many is a fresh key.
	freshEvery = 10
	// runKeyCount is the per-master transaction count of run keys:
	// the measured phase never simulates, and short runs keep the
	// prefill of thousands of fresh keys quick.
	runKeyCount = 20
)

// newRunKeys draws n requests over nRouter router keys. Every key is a
// Table 1 mix cut to runKeyCount transactions per master, with its own
// urgency threshold, so no two share a hash; fresh keys are each asked
// for once.
func newRunKeys(seed int64, nRouter, n int) (*runKeys, error) {
	r := rngFor(seed, streamKeys)
	k := &runKeys{}
	nFresh := 0
	for i := 0; i < n; i++ {
		if r.IntN(freshEvery) == 0 {
			k.Seq = append(k.Seq, keyRef{Fresh: true, Idx: nFresh})
			nFresh++
		} else {
			k.Seq = append(k.Seq, keyRef{Idx: r.IntN(nRouter)})
		}
	}
	table := spec.Table1Specs()
	offset := 1 + r.IntN(1<<20)
	for i := 0; i < nRouter; i++ {
		s := table[i%len(table)].Clone()
		if err := sweep.Apply(&s, sweep.ParamCount, runKeyCount); err != nil {
			return nil, err
		}
		s.Name = fmt.Sprintf("bench/run/%d", i)
		s.Params.UrgencyThreshold = uint64(offset + i)
		b, err := json.Marshal(service.RunRequest{Spec: &s, Model: "tl"})
		if err != nil {
			return nil, err
		}
		k.Router = append(k.Router, b)
	}
	var urg []any
	for u := 0; len(urg)*len(table) < nFresh; u++ {
		urg = append(urg, offset+nRouter+u)
	}
	k.FreshGrid = service.SweepRequest{
		Scenario: baseScenario, Name: "bench/run-fresh", Model: "tl",
		Axes: []service.SweepAxis{
			axis(sweep.ParamMix, anys(table1Names())...),
			axis(sweep.ParamCount, runKeyCount),
			axis(sweep.ParamUrgencyThreshold, urg...),
		},
	}
	vs, err := expand(k.FreshGrid)
	if err != nil {
		return nil, err
	}
	for _, j := range r.Perm(len(vs))[:nFresh] {
		b, err := json.Marshal(service.RunRequest{Spec: &vs[j].Spec, Model: "tl"})
		if err != nil {
			return nil, err
		}
		k.Fresh = append(k.Fresh, b)
	}
	return k, nil
}

func (k *runKeys) body(ref keyRef) []byte {
	if ref.Fresh {
		return k.Fresh[ref.Idx]
	}
	return k.Router[ref.Idx]
}

// heldOutGen draws paper-speed's held-out accuracy specs: library
// scenarios with platform parameters Table 1 never uses together.
type heldOutGen struct {
	r     *rand.Rand
	table []spec.Spec
	seen  map[string]bool // Table 1 hashes: a draw equal to one is redrawn
	n     int
}

func newHeldOutGen(seed int64) (*heldOutGen, error) {
	g := &heldOutGen{r: rngFor(seed, streamHeldOut), table: spec.Table1Specs(), seen: map[string]bool{}}
	for _, s := range g.table {
		h, err := s.Hash()
		if err != nil {
			return nil, err
		}
		g.seen[h] = true
	}
	return g, nil
}

func (g *heldOutGen) next() (spec.Spec, error) {
	for {
		s := g.table[g.r.IntN(len(g.table))].Clone()
		set := []struct {
			param string
			v     any
		}{
			{sweep.ParamWriteBufferDepth, []int{0, 1, 2, 4, 8}[g.r.IntN(5)]},
			{sweep.ParamPipelining, g.r.IntN(2) == 0},
			{sweep.ParamBIEnabled, g.r.IntN(2) == 0},
			{sweep.ParamClosedPage, g.r.IntN(2) == 0},
			{sweep.ParamFilters, []string{"all", "rr-only"}[g.r.IntN(2)]},
			{sweep.ParamUrgencyThreshold, []int{4, 8, 16, 32, 64}[g.r.IntN(5)]},
		}
		for _, p := range set {
			if err := sweep.Apply(&s, p.param, p.v); err != nil {
				return spec.Spec{}, fmt.Errorf("held-out %s=%v: %w", p.param, p.v, err)
			}
		}
		// Hashed under its base's name, a draw that left every
		// parameter at the base's value is that Table 1 spec.
		h, err := s.Hash()
		if err != nil {
			return spec.Spec{}, fmt.Errorf("held-out spec: %w", err)
		}
		if g.seen[h] {
			continue
		}
		s.Name = fmt.Sprintf("bench/heldout/%d", g.n)
		g.n++
		return s, s.Validate()
	}
}
