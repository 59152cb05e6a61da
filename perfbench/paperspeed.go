package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// paperSpeed is the paper's own experiment, serial and in process: the
// speed specs on TLM (multi- and single-master) and RTL, then the TL vs
// RTL comparison on Table 1 plus seed-drawn held-out variants. It
// touches only the kernel.
type paperSpeed struct {
	seed  int64
	dir   string
	specs []spec.Spec // multi, single: the speed pair
	runs  []speedRun
	table []core.Workload
	held  *heldOutGen
}

// heldPerPass is how many held-out specs each pass compares.
const heldPerPass = 2

// speedTxns is the speed specs' transactions per master, as in
// `cmd/speed -txns 600`. At the default 2000 an RTL run takes a tenth
// of a second, long enough to straddle the host's quiet and busy
// stretches; at 600 it takes about 30 ms, and more of them fall inside
// a quiet one (see calib.go).
const speedTxns = 600

// speedRun is one timed kernel run of a pass, with the cycles it must
// reproduce on every iteration.
type speedRun struct {
	name  string
	w     core.Workload
	model core.Model
	want  uint64
}

func newPaperSpeed(seed int64, dir string) *paperSpeed {
	return &paperSpeed{seed: seed, dir: dir}
}

func (p *paperSpeed) setup() error {
	multi, single := spec.SpeedSpecs(speedTxns)
	p.specs = []spec.Spec{multi, single}
	mw, err := core.FromSpec(multi)
	if err != nil {
		return err
	}
	sw, err := core.FromSpec(single)
	if err != nil {
		return err
	}
	p.runs = []speedRun{
		{name: "tlm", w: mw, model: core.TLM},
		{name: "tlm_single", w: sw, model: core.TLM},
		{name: "rtl", w: mw, model: core.RTL},
	}
	p.table = p.table[:0]
	for _, s := range spec.Table1Specs() {
		w, err := core.FromSpec(s)
		if err != nil {
			return err
		}
		p.table = append(p.table, w)
	}
	if p.held, err = newHeldOutGen(p.seed); err != nil {
		return err
	}
	// Warm-up pass: the reference cycle counts every measured
	// iteration must reproduce.
	for i := range p.runs {
		p.runs[i].want = uint64(core.Run(p.runs[i].w, p.runs[i].model, core.Options{}).Cycles)
	}
	for _, w := range p.table {
		core.Compare(w)
	}
	return nil
}

func (p *paperSpeed) measure(d time.Duration, tr *tracer) (measurement, error) {
	var m measurement
	ops := opKinds{}
	pr := newProbe()
	var passes []float64
	maxDiff := 0.0
	// timed runs fn as one operation of the given kind, then samples
	// the probe, so the probe sees the host as the operation did.
	timed := func(kind string, fn func()) float64 {
		t := time.Now()
		fn()
		el := us(time.Since(t))
		ops.add(kind, el)
		pr.sample()
		return el
	}
	start := time.Now()
	for time.Since(start) < d {
		held := make([]core.Workload, heldPerPass)
		for i := range held {
			s, err := p.held.next()
			if err != nil {
				return m, err
			}
			if held[i], err = core.FromSpec(s); err != nil {
				return m, err
			}
		}
		op := tr.newOp()
		pass := 0.0
		tr.do("bench.pass", op, 0, func(root int) {
			for _, r := range p.runs {
				var res core.RunResult
				pass += timed(r.name, func() {
					tr.do("core.run_"+r.name, op, root, func(int) { res = core.Run(r.w, r.model, core.Options{}) })
				})
				m.Attempted++
				switch {
				case !res.Completed || res.Violations != 0:
					m.fail("%s: completed %v violations %d", r.name, res.Completed, res.Violations)
				case uint64(res.Cycles) != r.want:
					m.fail("%s: %d cycles, warm-up gave %d", r.name, res.Cycles, r.want)
				}
			}
			for i, w := range append(p.table[:len(p.table):len(p.table)], held...) {
				kind := "compare " + w.Name
				if i >= len(p.table) {
					kind = "compare held-out"
				}
				var row core.AccuracyRow
				pass += timed(kind, func() {
					tr.do("core.compare", op, root, func(int) { row = core.Compare(w) })
				})
				m.Attempted++
				maxDiff = math.Max(maxDiff, row.ErrPct)
				if !row.Completed || row.TLMCycles != row.RTLCycles {
					m.fail("compare %s: TL %d RTL %d completed %v", w.Name, row.TLMCycles, row.RTLCycles, row.Completed)
				}
			}
		})
		passes = append(passes, pass)
	}
	scale := pr.scale(fastP)
	kcps := make([]float64, len(p.runs))
	weights := map[string]float64{"compare held-out": heldPerPass}
	for i, r := range p.runs {
		weights[r.name] = 1
		// Simulated Kcycles per host millisecond is cycles per µs.
		kcps[i] = float64(r.want) / ops.fast(map[string]float64{r.name: 1}, scale) * 1000
		m.note(r.name+"_kcycles_per_s", kcps[i], "Kc/s", fmt.Sprintf("fast end of n=%d runs, normalized", len(ops[r.name])))
		m.note(r.name+"_kcycles_per_s_median", float64(r.want)/median(ops[r.name])*1000, "Kc/s", "raw median, not gated")
	}
	for _, w := range p.table {
		weights["compare "+w.Name] = 1
	}
	m.note("accuracy_max_diff_pct", maxDiff, "%", fmt.Sprintf("TL vs RTL over %d compared specs", len(passes)*(len(p.table)+heldPerPass)))
	m.note("tl_rtl_speedup_x", kcps[0]/kcps[2], "x", "ungated ratio")
	m.note("host_scale", scale, "x", fmt.Sprintf("probe p%g %.4g us over n=%d", fastP, probeNominalUs/scale, len(pr.times)))
	// Simulated cycles per host second, the geometric mean of the
	// three models': a slowdown of any one of them shows.
	m.Throughput = geomean(kcps...) * 1000
	// A pass at the fast end: every operation of a pass at its own.
	m.Fast = ops.fast(weights, scale)
	m.note("latency_fast_raw_us", m.Fast/scale, "us", "not normalized, not gated")
	m.Lat = summarize(passes)
	return m, nil
}

func (p *paperSpeed) replay(tr *tracer, m *measurement) (map[string]float64, error) {
	specs := append([]spec.Spec(nil), p.specs...)
	specs = append(specs, spec.Table1Specs()...)
	held, err := newHeldOutGen(p.seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		s, err := held.next()
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	// The held-out parameter space as one grid over the Table 1 mixes.
	grid := service.SweepRequest{
		Scenario: baseScenario, Name: "bench/heldout", Model: "tl",
		Axes: []service.SweepAxis{
			axis(sweep.ParamMix, anys(table1Names())...),
			axis(sweep.ParamWriteBufferDepth, 0, 1, 2, 4, 8),
			axis(sweep.ParamPipelining, true, false),
			axis(sweep.ParamBIEnabled, true, false),
			axis(sweep.ParamClosedPage, true, false),
			axis(sweep.ParamFilters, "all", "rr-only"),
		},
	}
	out, err := replayLayers(tr, replayIn{specs: specs, grid: grid, workers: 2}, p.dir, m)
	if err != nil {
		return nil, err
	}
	// No serving tier runs in this workload's measured phase.
	for _, k := range []string{"store.disk_hit_frac", "sched.rejections", "service.jobs", "shard.router_hit_frac",
		"shard.stolen_rows", "shard.failover_rows", "bench.gen_late_p99_us"} {
		out[k] = 0
	}
	return out, nil
}

func (p *paperSpeed) close() {}
