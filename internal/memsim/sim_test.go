package memsim

import (
	"math"
	"math/rand"
	"testing"

	"graphdse/internal/trace"
)

// syntheticTrace mimics a graph-workload access stream: bursts of sequential
// scans (CSR arrays) interleaved with random accesses (frontier/parent
// lookups) and compute gaps. Cycles are CPU cycles.
func syntheticTrace(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	cycle := uint64(1)
	seqAddr := uint64(0)
	for len(events) < n {
		burst := 4 + rng.Intn(12)
		for b := 0; b < burst && len(events) < n; b++ {
			cycle += uint64(6 + rng.Intn(20))
			seqAddr += 64
			events = append(events, trace.Event{
				Cycle: cycle, Op: trace.Read, Addr: 0x100000 + seqAddr%(1<<19),
			})
		}
		rnd := 1 + rng.Intn(4)
		for k := 0; k < rnd && len(events) < n; k++ {
			cycle += uint64(12 + rng.Intn(30))
			op := trace.Read
			if rng.Intn(4) == 0 {
				op = trace.Write
			}
			// Mostly hot-region accesses (frontier/parent arrays) with a
			// cold tail (edge targets).
			addr := uint64(0x800000) + uint64(rng.Intn(1<<18))
			if rng.Intn(5) == 0 {
				addr = uint64(0x1000000) + uint64(rng.Intn(1<<23))
			}
			events = append(events, trace.Event{Cycle: cycle, Op: op, Addr: addr})
		}
		cycle += uint64(rng.Intn(160))
	}
	return events
}

// reuseTrace models the cache-friendly but row-buffer-hostile regime:
// random accesses with heavy reuse over a working set (512 KiB) that spans
// many DRAM rows yet fits comfortably in a hybrid DRAM cache.
func reuseTrace(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	cycle := uint64(1)
	for len(events) < n {
		cycle += uint64(8 + rng.Intn(24))
		op := trace.Read
		if rng.Intn(5) == 0 {
			op = trace.Write
		}
		addr := uint64(rng.Intn(1 << 19))
		events = append(events, trace.Event{Cycle: cycle, Op: op, Addr: addr})
	}
	return events
}

// scatterTrace models row-buffer-hostile traffic: uniform random accesses
// over a region far larger than the row buffers, with a write share — the
// regime where NVM queueing dominates (the paper's saturated-NVM behavior).
func scatterTrace(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	cycle := uint64(1)
	for len(events) < n {
		cycle += uint64(12 + rng.Intn(9))
		op := trace.Read
		if rng.Intn(4) == 0 {
			op = trace.Write
		}
		events = append(events, trace.Event{Cycle: cycle, Op: op, Addr: uint64(rng.Int63n(1 << 22))})
	}
	return events
}

// mustPrepare validates and decodes a test trace once, so every replay in a
// test shares it the way a sweep does.
func mustPrepare(t testing.TB, events []trace.Event) *PreparedTrace {
	t.Helper()
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func runCfg(t *testing.T, cfg Config, pt *PreparedTrace) *Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunPrepared(pt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunEmptyTrace(t *testing.T) {
	sim, err := New(NewDRAMConfig(2, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPrepared(mustPrepare(t, nil)); err != ErrEmptyTrace {
		t.Fatalf("RunPrepared: err = %v, want ErrEmptyTrace", err)
	}
	if _, err := sim.RunSource(trace.NewSliceSource(nil)); err != ErrEmptyTrace {
		t.Fatalf("RunSource: err = %v, want ErrEmptyTrace", err)
	}
}

func TestRunRejectsBadEvent(t *testing.T) {
	events := []trace.Event{{Cycle: 1, Op: 'Q', Addr: 0}}
	if _, err := Prepare(events); err == nil {
		t.Fatal("Prepare: expected bad-op error")
	}
	sim, err := New(NewDRAMConfig(2, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSource(trace.NewSliceSource(events)); err == nil {
		t.Fatal("RunSource: expected bad-op error")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected config error")
	}
}

func TestRunDeterministic(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(5000, 1))
	a := runCfg(t, NewHybridConfig(2, 2000, 666, 33, 0.25), pt)
	b := runCfg(t, NewHybridConfig(2, 2000, 666, 33, 0.25), pt)
	if a.AvgPowerPerChannel != b.AvgPowerPerChannel ||
		a.AvgTotalLatency != b.AvgTotalLatency ||
		a.AvgBandwidthPerBank != b.AvgBandwidthPerBank {
		t.Fatal("simulation must be deterministic")
	}
}

func TestReadWriteCountsConserved(t *testing.T) {
	events := syntheticTrace(8000, 2)
	var wantR, wantW float64
	for _, e := range events {
		if e.Op == trace.Write {
			wantW++
		} else {
			wantR++
		}
	}
	pt := mustPrepare(t, events)
	for _, ch := range []int{2, 4} {
		res := runCfg(t, NewDRAMConfig(ch, 2000, 400), pt)
		gotR := res.AvgReadsPerChannel * float64(ch)
		gotW := res.AvgWritesPerChannel * float64(ch)
		if gotR != wantR || gotW != wantW {
			t.Fatalf("%d ch: reads %v/%v writes %v/%v", ch, gotR, wantR, gotW, wantW)
		}
	}
}

func TestReadsPerChannelHalveWithChannels(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(8000, 3))
	for _, mk := range []func(ch int) Config{
		func(ch int) Config { return NewDRAMConfig(ch, 2000, 400) },
		func(ch int) Config { return NewNVMConfig(ch, 2000, 400, 40) },
	} {
		r2 := runCfg(t, mk(2), pt)
		r4 := runCfg(t, mk(4), pt)
		ratio := r2.AvgReadsPerChannel / r4.AvgReadsPerChannel
		if math.Abs(ratio-2) > 0.01 {
			t.Fatalf("reads/channel ratio = %v, want 2", ratio)
		}
		wr := r2.AvgWritesPerChannel / r4.AvgWritesPerChannel
		if math.Abs(wr-2) > 0.01 {
			t.Fatalf("writes/channel ratio = %v, want 2", wr)
		}
	}
}

func TestBandwidthShapes(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(20000, 4))

	// Bandwidth per bank grows with CPU frequency (arrival-bound runs
	// compress in wall time).
	slow := runCfg(t, NewDRAMConfig(2, 2000, 400), pt)
	fast := runCfg(t, NewDRAMConfig(2, 6500, 400), pt)
	if fast.AvgBandwidthPerBank <= slow.AvgBandwidthPerBank {
		t.Fatalf("bandwidth should grow with CPU freq: %v vs %v",
			fast.AvgBandwidthPerBank, slow.AvgBandwidthPerBank)
	}

	// Bandwidth per bank roughly halves when channels double.
	two := runCfg(t, NewDRAMConfig(2, 2000, 400), pt)
	four := runCfg(t, NewDRAMConfig(4, 2000, 400), pt)
	ratio := two.AvgBandwidthPerBank / four.AvgBandwidthPerBank
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("2ch/4ch bandwidth ratio = %v, want ~2", ratio)
	}

	// DRAM bandwidth >= NVM bandwidth at matched config (faster service).
	nvm := runCfg(t, NewNVMConfig(2, 2000, 400, 40), pt)
	if two.AvgBandwidthPerBank < nvm.AvgBandwidthPerBank {
		t.Fatalf("DRAM bandwidth %v < NVM %v", two.AvgBandwidthPerBank, nvm.AvgBandwidthPerBank)
	}
}

func TestPowerShapes(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(20000, 5))

	// Paper: DRAM consumes the most power, NVM the least, hybrid between
	// (§IV-B.1) at low controller frequency.
	d := runCfg(t, NewDRAMConfig(2, 2000, 400), pt)
	n := runCfg(t, NewNVMConfig(2, 2000, 400, 40), pt)
	h := runCfg(t, NewHybridConfig(2, 2000, 400, 40, 0.25), pt)
	if !(d.AvgPowerPerChannel > h.AvgPowerPerChannel && h.AvgPowerPerChannel > n.AvgPowerPerChannel) {
		t.Fatalf("power ordering D > H > N violated: D=%v H=%v N=%v",
			d.AvgPowerPerChannel, h.AvgPowerPerChannel, n.AvgPowerPerChannel)
	}

	// Paper: NVM power grows with controller frequency (I/O dominated).
	nHigh := runCfg(t, NewNVMConfig(2, 2000, 1600, 160), pt)
	if nHigh.AvgPowerPerChannel <= n.AvgPowerPerChannel {
		t.Fatalf("NVM power should grow with ctrl freq: %v vs %v",
			nHigh.AvgPowerPerChannel, n.AvgPowerPerChannel)
	}

	// Paper: DRAM power grows with CPU frequency (same work in less time).
	dFast := runCfg(t, NewDRAMConfig(2, 6500, 400), pt)
	if dFast.AvgPowerPerChannel <= d.AvgPowerPerChannel {
		t.Fatalf("DRAM power should grow with CPU freq: %v vs %v",
			dFast.AvgPowerPerChannel, d.AvgPowerPerChannel)
	}
}

func TestLatencyShapes(t *testing.T) {
	scatter := mustPrepare(t, scatterTrace(20000, 6))

	// DRAM device latency in controller cycles is frequency-insensitive
	// (timing parameters are fixed in cycles, as in the paper's setup:
	// 31.87 cycles at every frequency).
	dLow := runCfg(t, NewDRAMConfig(2, 2000, 400), scatter)
	dHigh := runCfg(t, NewDRAMConfig(2, 2000, 1600), scatter)
	if rel := dHigh.AvgLatency / dLow.AvgLatency; rel < 0.9 || rel > 1.1 {
		t.Fatalf("DRAM avg latency should be ~frequency-insensitive: %v vs %v",
			dHigh.AvgLatency, dLow.AvgLatency)
	}

	// NVM device latency (cycles) grows with controller frequency because
	// the cell time is fixed in nanoseconds (paper: 26.58 → 34.16 cycles).
	nLow := runCfg(t, NewNVMConfig(2, 2000, 400, 20), scatter)
	nHigh := runCfg(t, NewNVMConfig(2, 2000, 1600, 80), scatter)
	if nHigh.AvgLatency <= nLow.AvgLatency {
		t.Fatalf("NVM avg latency should grow with ctrl freq: %v vs %v",
			nHigh.AvgLatency, nLow.AvgLatency)
	}

	// Hybrid beats DRAM on device latency (cache hits are fast) — the
	// paper's recommendation for average latency is hybrid. The effect shows
	// on working sets larger than the row buffers but within the DRAM cache.
	reuse := mustPrepare(t, reuseTrace(30000, 12))
	hR := runCfg(t, NewHybridConfig(2, 2000, 400, 20, 0.5), reuse)
	dR := runCfg(t, NewDRAMConfig(2, 2000, 400), reuse)
	if hR.AvgLatency >= dR.AvgLatency {
		t.Fatalf("hybrid avg latency %v should beat DRAM %v (cache hit %v, DRAM row hit %v)",
			hR.AvgLatency, dR.AvgLatency, hR.CacheHitRate, dR.RowHitRate)
	}

	// Total latency (queue-inclusive): DRAM lowest (shortest queuing), NVM
	// higher (slow cells back up the queue) — the paper recommends DRAM for
	// total latency.
	n := runCfg(t, NewNVMConfig(2, 2000, 666, 67), scatter)
	d666 := runCfg(t, NewDRAMConfig(2, 2000, 666), scatter)
	if d666.AvgTotalLatency >= n.AvgTotalLatency {
		t.Fatalf("DRAM total latency %v should beat NVM %v",
			d666.AvgTotalLatency, n.AvgTotalLatency)
	}

	// NVM total latency in cycles grows with controller frequency (paper
	// Figure 2: 874 → 2485 cycles from 400 to 1600 MHz): slow cells keep the
	// queue saturated, so the wall-clock backlog is constant and its measure
	// in cycles scales with the clock.
	if nHigh.AvgTotalLatency <= nLow.AvgTotalLatency {
		t.Fatalf("NVM total latency should grow with ctrl freq: %v vs %v",
			nHigh.AvgTotalLatency, nLow.AvgTotalLatency)
	}

	// Total latency always >= device latency.
	for _, r := range []*Result{dLow, dHigh, nLow, nHigh, hR, dR, n, d666} {
		if r.AvgTotalLatency < r.AvgLatency {
			t.Fatalf("total %v < device %v", r.AvgTotalLatency, r.AvgLatency)
		}
	}
}

func TestHybridCacheFiltersBackendTraffic(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(20000, 7))
	n := runCfg(t, NewNVMConfig(2, 2000, 666, 67), pt)
	h := runCfg(t, NewHybridConfig(2, 2000, 666, 67, 0.5), pt)
	if h.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate = %v", h.CacheHitRate)
	}
	if h.AvgReadsPerChannel+h.AvgWritesPerChannel >= n.AvgReadsPerChannel+n.AvgWritesPerChannel {
		t.Fatalf("hybrid backend traffic (%v) should be below NVM (%v)",
			h.AvgReadsPerChannel+h.AvgWritesPerChannel,
			n.AvgReadsPerChannel+n.AvgWritesPerChannel)
	}
	// Larger DRAM fraction → more filtering.
	hSmall := runCfg(t, NewHybridConfig(2, 2000, 666, 67, 0.125), pt)
	if h.AvgReadsPerChannel >= hSmall.AvgReadsPerChannel {
		t.Fatalf("bigger cache should filter more reads: %v vs %v",
			h.AvgReadsPerChannel, hSmall.AvgReadsPerChannel)
	}
}

func TestSchedulerFRFCFSImprovesRowHits(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(20000, 8))
	fcfs := NewDRAMConfig(2, 6500, 400)
	fcfs.Scheduler = FCFS
	frf := NewDRAMConfig(2, 6500, 400)
	frf.Scheduler = FRFCFS
	a := runCfg(t, fcfs, pt)
	b := runCfg(t, frf, pt)
	if b.RowHitRate < a.RowHitRate {
		t.Fatalf("FR-FCFS row hit rate %v < FCFS %v", b.RowHitRate, a.RowHitRate)
	}
}

func TestEnduranceTracking(t *testing.T) {
	// Hammer one line with writes: lifetime must be finite and short
	// relative to a read-only run.
	var events []trace.Event
	for i := 0; i < 5000; i++ {
		events = append(events, trace.Event{Cycle: uint64(i * 10), Op: trace.Write, Addr: 0x40})
	}
	pt := mustPrepare(t, events)
	res := runCfg(t, NewNVMConfig(2, 2000, 400, 40), pt)
	if res.MaxRowWrites == 0 {
		t.Fatal("expected row-write tracking")
	}
	if math.IsInf(res.LifetimeYears, 1) || res.LifetimeYears <= 0 {
		t.Fatalf("lifetime = %v", res.LifetimeYears)
	}
	reads := make([]trace.Event, len(events))
	copy(reads, events)
	for i := range reads {
		reads[i].Op = trace.Read
	}
	readsPT := mustPrepare(t, reads)
	ro := runCfg(t, NewNVMConfig(2, 2000, 400, 40), readsPT)
	if !math.IsInf(ro.LifetimeYears, 1) {
		t.Fatalf("read-only lifetime should be infinite, got %v", ro.LifetimeYears)
	}
}

func TestMetricVectorOrder(t *testing.T) {
	res := runCfg(t, NewDRAMConfig(2, 2000, 400), mustPrepare(t, syntheticTrace(2000, 9)))
	v := res.MetricVector()
	if len(v) != len(MetricNames) {
		t.Fatalf("metric vector length %d", len(v))
	}
	if v[0] != res.AvgPowerPerChannel || v[5] != res.AvgWritesPerChannel {
		t.Fatal("metric vector order wrong")
	}
}

func TestResultStringContainsEssentials(t *testing.T) {
	res := runCfg(t, NewHybridConfig(2, 2000, 400, 40, 0.25), mustPrepare(t, syntheticTrace(2000, 10)))
	s := res.String()
	for _, want := range []string{"Hybrid", "power", "bandwidth", "cache hit"} {
		if !contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestWallTimeShrinksWithCPUFreq(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(10000, 11))
	slow := runCfg(t, NewDRAMConfig(2, 2000, 400), pt)
	fast := runCfg(t, NewDRAMConfig(2, 6500, 400), pt)
	if fast.WallTimeSeconds >= slow.WallTimeSeconds {
		t.Fatalf("wall time should shrink with CPU freq: %v vs %v",
			fast.WallTimeSeconds, slow.WallTimeSeconds)
	}
}

func TestFormatMetric(t *testing.T) {
	if got := FormatMetric("Power", 0.1234); got != "0.12" {
		t.Fatalf("Power = %q", got)
	}
	if got := FormatMetric("MemoryReads", 4.13e7); got != "4.13E+07" {
		t.Fatalf("MemoryReads = %q", got)
	}
	if got := FormatMetric("Bandwidth", 985.12); got != "985.12" {
		t.Fatalf("Bandwidth = %q", got)
	}
}

func TestClosedPagePolicy(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(10000, 13))
	open := NewDRAMConfig(2, 2000, 400)
	closed := NewDRAMConfig(2, 2000, 400)
	closed.Policy = ClosedPage
	o := runCfg(t, open, pt)
	c := runCfg(t, closed, pt)
	if c.RowHitRate != 0 {
		t.Fatalf("closed-page row hit rate = %v, want 0", c.RowHitRate)
	}
	if c.AvgLatency <= o.AvgLatency {
		t.Fatalf("closed-page avg latency %v should exceed open-page %v on a row-local trace",
			c.AvgLatency, o.AvgLatency)
	}
	// Closed-page DRAM latency is uniform: tRCD+tCAS+tBURST = 22 cycles.
	want := float64(DRAMTiming().TRCD + DRAMTiming().TCAS + DRAMTiming().TBURST)
	if c.AvgLatency != want {
		t.Fatalf("closed-page avg latency = %v, want %v", c.AvgLatency, want)
	}
	if OpenPage.String() != "open-page" || ClosedPage.String() != "closed-page" {
		t.Fatal("policy names wrong")
	}
}

func TestFlatHybridPreservesOperationCounts(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(10000, 14))
	pure := runCfg(t, NewNVMConfig(2, 2000, 400, 40), pt)
	flat := NewHybridConfig(2, 2000, 400, 40, 0.25)
	flat.HybridMode = HybridFlat
	h := runCfg(t, flat, pt)
	// Flat partitioning routes every request to exactly one tier: the
	// per-channel operation counts match the pure configurations.
	if h.AvgReadsPerChannel != pure.AvgReadsPerChannel ||
		h.AvgWritesPerChannel != pure.AvgWritesPerChannel {
		t.Fatalf("flat hybrid ops %v/%v, pure %v/%v",
			h.AvgReadsPerChannel, h.AvgWritesPerChannel,
			pure.AvgReadsPerChannel, pure.AvgWritesPerChannel)
	}
	if h.CacheHitRate != 0 {
		t.Fatalf("flat hybrid has no cache, hit rate %v", h.CacheHitRate)
	}
}

func TestFlatHybridLatencyBetweenTiers(t *testing.T) {
	pt := mustPrepare(t, scatterTrace(20000, 15))
	d := runCfg(t, NewDRAMConfig(2, 2000, 400), pt)
	n := runCfg(t, NewNVMConfig(2, 2000, 400, 80), pt)
	flat := NewHybridConfig(2, 2000, 400, 80, 0.5)
	flat.HybridMode = HybridFlat
	h := runCfg(t, flat, pt)
	// Device latency mixes the two tiers.
	lo, hi := d.AvgLatency, n.AvgLatency
	if lo > hi {
		lo, hi = hi, lo
	}
	if h.AvgLatency < lo*0.8 || h.AvgLatency > hi*1.4 {
		t.Fatalf("flat hybrid avg latency %v outside tier range [%v, %v]",
			h.AvgLatency, lo, hi)
	}
}

func TestHybridKindString(t *testing.T) {
	if HybridCache.String() != "cache" || HybridFlat.String() != "flat" {
		t.Fatal("HybridKind names wrong")
	}
}

func TestFlatHybridFractionShiftsLatency(t *testing.T) {
	pt := mustPrepare(t, scatterTrace(15000, 16))
	mk := func(f float64) *Result {
		c := NewHybridConfig(2, 2000, 400, 80, f)
		c.HybridMode = HybridFlat
		return runCfg(t, c, pt)
	}
	mostlyDRAM := mk(0.9)
	mostlyNVM := mk(0.1)
	if mostlyDRAM.AvgLatency >= mostlyNVM.AvgLatency {
		t.Fatalf("larger DRAM fraction should lower avg latency: %v vs %v",
			mostlyDRAM.AvgLatency, mostlyNVM.AvgLatency)
	}
}
