// The paper's experiment workloads, expressed as declarative specs.
// These used to live only as Go closures in internal/core; as data
// they can be listed, hashed, served over the wire and extended with
// new scenario families without touching simulator code. The core
// harness compiles exactly these specs, so the closure era and the
// spec era produce bit-identical cycle counts (asserted by
// core/spec_equivalence_test.go).

package spec

import (
	"fmt"
	"sync"

	"repro/internal/config"
)

// table1Base returns the Table 1 platform: three named masters, with
// the display master optionally promoted to the RT class.
func table1Base(rtMaster bool) config.Params {
	p := config.Default(3)
	p.Masters[0].Name = "dma0"
	p.Masters[1].Name = "cpu"
	p.Masters[2].Name = "disp"
	if rtMaster {
		p.Masters[2].RealTime = true
		p.Masters[2].QoSObjective = 200
	}
	return p
}

// Table1Specs returns the twelve accuracy-experiment workloads: four
// traffic-pattern families (sequential/DMA, random/CPU-like, bursty,
// real-time stream) in three master-mix variants each (read-dominant,
// write-heavy, RT-mixed). Seeds are fixed: every scenario is
// bit-reproducible, so each spec's hash identifies its result.
func Table1Specs() []Spec {
	mk := func(name string, rt bool, masters ...GenSpec) Spec {
		return Spec{SpecVersion: Version, Name: name, Params: table1Base(rt), Masters: masters}
	}
	return []Spec{
		// Family 1: sequential DMA traffic.
		mk("seq/read-dominant", false,
			GenSpec{Kind: KindSequential, Base: 0x00000, Beats: 8, Count: 150, Gap: 2},
			GenSpec{Kind: KindSequential, Base: 0x80000, Beats: 8, Count: 150, Gap: 4},
			GenSpec{Kind: KindSequential, Base: 0x100000, Beats: 4, Count: 150, Gap: 8},
		),
		mk("seq/write-heavy", false,
			GenSpec{Kind: KindSequential, Base: 0x00000, Beats: 8, Count: 150, WriteEvery: 1},
			GenSpec{Kind: KindSequential, Base: 0x80000, Beats: 4, Count: 150, WriteEvery: 2},
			GenSpec{Kind: KindSequential, Base: 0x100000, Beats: 8, Count: 150, Gap: 4},
		),
		mk("seq/rt-mixed", true,
			GenSpec{Kind: KindSequential, Base: 0x00000, Beats: 16, Count: 150},
			GenSpec{Kind: KindSequential, Base: 0x80000, Beats: 8, Count: 150, WriteEvery: 3},
			GenSpec{Kind: KindStream, Base: 0x100000, Beats: 4, Period: 60, Count: 150},
		),
		// Family 2: random CPU-like traffic.
		mk("rand/read-dominant", false,
			GenSpec{Kind: KindRandom, Seed: 101, Base: 0x00000, WindowBytes: 1 << 18, MaxBeats: 8, WriteFrac: 0.1, MeanGap: 6, Count: 150},
			GenSpec{Kind: KindRandom, Seed: 202, Base: 0x80000, WindowBytes: 1 << 18, MaxBeats: 8, WriteFrac: 0.1, MeanGap: 10, Count: 150},
			GenSpec{Kind: KindRandom, Seed: 303, Base: 0x100000, WindowBytes: 1 << 16, MaxBeats: 4, WriteFrac: 0.0, MeanGap: 14, Count: 150},
		),
		mk("rand/write-heavy", false,
			GenSpec{Kind: KindRandom, Seed: 404, Base: 0x00000, WindowBytes: 1 << 18, MaxBeats: 8, WriteFrac: 0.7, MeanGap: 4, Count: 150},
			GenSpec{Kind: KindRandom, Seed: 505, Base: 0x80000, WindowBytes: 1 << 18, MaxBeats: 4, WriteFrac: 0.6, MeanGap: 6, Count: 150},
			GenSpec{Kind: KindRandom, Seed: 606, Base: 0x100000, WindowBytes: 1 << 16, MaxBeats: 8, WriteFrac: 0.5, MeanGap: 10, Count: 150},
		),
		mk("rand/rt-mixed", true,
			GenSpec{Kind: KindRandom, Seed: 707, Base: 0x00000, WindowBytes: 1 << 18, MaxBeats: 16, WriteFrac: 0.3, MeanGap: 5, Count: 150},
			GenSpec{Kind: KindRandom, Seed: 808, Base: 0x80000, WindowBytes: 1 << 18, MaxBeats: 8, WriteFrac: 0.3, MeanGap: 8, Count: 150},
			GenSpec{Kind: KindStream, Base: 0x100000, Beats: 4, Period: 70, Count: 150},
		),
		// Family 3: bursty on/off traffic.
		mk("burst/read-dominant", false,
			GenSpec{Kind: KindBursty, Base: 0x00000, Beats: 8, BurstTxns: 8, IdleGap: 200, Count: 150},
			GenSpec{Kind: KindBursty, Base: 0x80000, Beats: 8, BurstTxns: 6, IdleGap: 150, Count: 150},
			GenSpec{Kind: KindSequential, Base: 0x100000, Beats: 4, Count: 150, Gap: 10},
		),
		mk("burst/write-heavy", false,
			GenSpec{Kind: KindBursty, Base: 0x00000, Beats: 8, BurstTxns: 8, IdleGap: 150, Count: 150, Write: true},
			GenSpec{Kind: KindBursty, Base: 0x80000, Beats: 4, BurstTxns: 10, IdleGap: 100, Count: 150, Write: true},
			GenSpec{Kind: KindRandom, Seed: 909, Base: 0x100000, WindowBytes: 1 << 16, MaxBeats: 4, WriteFrac: 0.2, MeanGap: 8, Count: 150},
		),
		mk("burst/rt-mixed", true,
			GenSpec{Kind: KindBursty, Base: 0x00000, Beats: 16, BurstTxns: 4, IdleGap: 250, Count: 150},
			GenSpec{Kind: KindBursty, Base: 0x80000, Beats: 8, BurstTxns: 6, IdleGap: 150, Count: 150, Write: true},
			GenSpec{Kind: KindStream, Base: 0x100000, Beats: 8, Period: 90, Count: 150},
		),
		// Family 4: real-time stream dominated traffic.
		mk("stream/read-dominant", true,
			GenSpec{Kind: KindStream, Base: 0x00000, Beats: 8, Period: 50, Count: 150},
			GenSpec{Kind: KindSequential, Base: 0x80000, Beats: 8, Count: 150, Gap: 6},
			GenSpec{Kind: KindStream, Base: 0x100000, Beats: 4, Period: 80, Count: 150},
		),
		mk("stream/write-heavy", true,
			GenSpec{Kind: KindStream, Base: 0x00000, Beats: 8, Period: 60, Count: 150, Write: true},
			GenSpec{Kind: KindSequential, Base: 0x80000, Beats: 8, Count: 150, WriteEvery: 1},
			GenSpec{Kind: KindStream, Base: 0x100000, Beats: 4, Period: 70, Count: 150},
		),
		mk("stream/rt-mixed", true,
			GenSpec{Kind: KindStream, Base: 0x00000, Beats: 16, Period: 120, Count: 150},
			GenSpec{Kind: KindRandom, Seed: 111, Base: 0x80000, WindowBytes: 1 << 18, MaxBeats: 8, WriteFrac: 0.4, MeanGap: 6, Count: 150},
			GenSpec{Kind: KindStream, Base: 0x100000, Beats: 4, Period: 60, Count: 150},
		),
	}
}

// SpeedSpecs returns the speed-experiment pair: the contended
// three-master mix and the single-master "pure bus performance"
// configuration (paper §4). txns <= 0 selects the default.
func SpeedSpecs(txns int) (multi Spec, single Spec) {
	if txns <= 0 {
		txns = 2000
	}
	multi = Spec{
		SpecVersion: Version, Name: "speed/multi", Params: config.Default(3),
		Masters: []GenSpec{
			{Kind: KindSequential, Base: 0x00000, Beats: 8, Count: txns, WriteEvery: 3, Gap: 90},
			{Kind: KindRandom, Seed: 42, Base: 0x80000, WindowBytes: 1 << 18, MaxBeats: 8, WriteFrac: 0.3, MeanGap: 110, Count: txns},
			{Kind: KindStream, Base: 0x100000, Beats: 4, Period: 120, Count: txns},
		},
	}
	single = Spec{
		SpecVersion: Version, Name: "speed/single", Params: config.Default(1),
		Masters: []GenSpec{
			{Kind: KindSequential, Base: 0, Beats: 8, Count: 3 * txns, Gap: 100},
		},
	}
	return multi, single
}

// AblationSpec returns the write-heavy contended workload of the
// A1/A2/A4 ablations at the given write-buffer depth.
func AblationSpec(depth, txns int) Spec {
	if txns <= 0 {
		txns = 300
	}
	p := config.Default(3)
	p.WriteBufferDepth = depth
	p.Masters[2].RealTime = true
	p.Masters[2].QoSObjective = 150
	return Spec{
		SpecVersion: Version, Name: "ablation/write-heavy", Params: p,
		Masters: []GenSpec{
			{Kind: KindSequential, Base: 0x00000, Beats: 8, Count: txns, WriteEvery: 1},
			{Kind: KindRandom, Seed: 77, Base: 0x80000, WindowBytes: 1 << 18, MaxBeats: 8, WriteFrac: 0.6, MeanGap: 3, Count: txns},
			{Kind: KindStream, Base: 0x100000, Beats: 4, Period: 60, Count: txns},
		},
	}
}

// SaturatingSpec returns the no-pacing workload of the A1/A2
// ablations: three back-to-back sequential masters, one write-heavy.
func SaturatingSpec(depth, txns int) Spec {
	if txns <= 0 {
		txns = 300
	}
	p := config.Default(3)
	p.WriteBufferDepth = depth
	return Spec{
		SpecVersion: Version, Name: "ablation/saturating", Params: p,
		Masters: []GenSpec{
			{Kind: KindSequential, Base: 0x00000, Beats: 4, Count: txns},
			{Kind: KindSequential, Base: 0x80000, Beats: 4, Count: txns, WriteEvery: 1},
			{Kind: KindSequential, Base: 0x100000, Beats: 8, Count: txns, WriteEvery: 2},
		},
	}
}

// PagePolicySpec returns the A6 ablation workload: a single master
// thrashing rows within one bank, with think time between
// transactions.
func PagePolicySpec(closed bool, txns int) Spec {
	if txns <= 0 {
		txns = 300
	}
	p := config.Default(1)
	p.BIEnabled = false // isolate the page policy from the hint path
	p.ClosedPage = closed
	rowStride := p.AddrMap.RowBytes() * uint32(p.AddrMap.Banks())
	return Spec{
		SpecVersion: Version, Name: "ablation/pagepolicy", Params: p,
		Masters: []GenSpec{
			{Kind: KindSequential, Base: 0, Beats: 4, Count: txns, Gap: 12, StrideBytes: rowStride},
		},
	}
}

// BusWidthSpec returns the A7 ablation workload: a streaming DMA pair
// on a platform with the given bus width in bytes.
func BusWidthSpec(busBytes, txns int) Spec {
	if txns <= 0 {
		txns = 300
	}
	p := config.Default(2)
	p.BusBytes = busBytes
	switch busBytes {
	case 8:
		p.AddrMap.BeatBytesLog2 = 3
	case 4:
		p.AddrMap.BeatBytesLog2 = 2
	}
	return Spec{
		SpecVersion: Version, Name: "ablation/buswidth", Params: p,
		Masters: []GenSpec{
			{Kind: KindSequential, Base: 0, Beats: 8, Count: txns, BeatBytes: busBytes},
			{Kind: KindSequential, Base: 0x80000, Beats: 8, Count: txns, BeatBytes: busBytes},
		},
	}
}

// InterleavingSpec returns the A3 bank-interleaving workload: two
// masters pinned to different rows of the same banks, each striding a
// full row per transaction. Their address spans interleave without
// sharing a byte — the footprint validator proves it.
func InterleavingSpec(biOn bool, txns int) Spec {
	if txns <= 0 {
		txns = 400
	}
	p := config.Default(2)
	p.BIEnabled = biOn
	rowBytes := p.AddrMap.RowBytes()
	bankStride := rowBytes * uint32(p.AddrMap.Banks()) // next row, same bank
	return Spec{
		SpecVersion: Version, Name: "ablation/interleaving", Params: p,
		Masters: []GenSpec{
			{Kind: KindSequential, Base: 0, Beats: 8, Count: txns, StrideBytes: bankStride},
			{Kind: KindSequential, Base: rowBytes, Beats: 8, Count: txns, StrideBytes: bankStride},
		},
	}
}

// Scenarios returns the named scenario library the simulation service
// lists and accepts by name: the twelve Table 1 scenarios plus the
// speed-experiment pair at default size.
func Scenarios() []Spec {
	ws := Table1Specs()
	multi, single := SpeedSpecs(0)
	return append(ws, multi, single)
}

// library indexes Scenarios by name. It is built once: sweep grids
// look a library mix up for every variant they expand.
var library = sync.OnceValue(func() map[string]Spec {
	byName := map[string]Spec{}
	for _, s := range Scenarios() {
		if _, dup := byName[s.Name]; !dup {
			byName[s.Name] = s
		}
	}
	return byName
})

// ByName returns the library scenario with the given name, as a
// Clone the caller may mutate freely.
func ByName(name string) (Spec, error) {
	s, ok := library()[name]
	if !ok {
		return Spec{}, fmt.Errorf("spec: unknown scenario %q", name)
	}
	return s.Clone(), nil
}
