package memsim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphdse/internal/trace"
)

// Property: across random traces and configurations, the simulator conserves
// operation counts (reads+writes across channels equal the trace totals for
// non-cache organizations), keeps latencies and power non-negative, and
// reports total latency >= device latency.
func TestPropSimulatorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(2000)
		events := make([]trace.Event, n)
		cycle := uint64(1)
		for i := range events {
			cycle += uint64(1 + rng.Intn(40))
			op := trace.Read
			if rng.Intn(3) == 0 {
				op = trace.Write
			}
			events[i] = trace.Event{Cycle: cycle, Op: op, Addr: uint64(rng.Int63n(1 << 26))}
		}
		var wantR, wantW uint64
		for _, e := range events {
			if e.Op == trace.Write {
				wantW++
			} else {
				wantR++
			}
		}

		channels := []int{1, 2, 4}[rng.Intn(3)]
		ctrl := []float64{400, 666, 1250, 1600}[rng.Intn(4)]
		cpu := []float64{2000, 3000, 5000, 6500}[rng.Intn(4)]
		var cfg Config
		switch rng.Intn(3) {
		case 0:
			cfg = NewDRAMConfig(channels, cpu, ctrl)
		case 1:
			cfg = NewNVMConfig(channels, cpu, ctrl, NVMTRCDSweep(ctrl)[rng.Intn(6)])
		default:
			cfg = NewHybridConfig(channels, cpu, ctrl, NVMTRCDSweep(ctrl)[rng.Intn(6)], 0.25)
			cfg.HybridMode = HybridFlat // flat preserves op counts
		}
		if rng.Intn(2) == 0 {
			cfg.Scheduler = FCFS
		}
		sim, err := New(cfg)
		if err != nil {
			return false
		}
		res, err := sim.RunSource(trace.NewSliceSource(events))
		if err != nil {
			return false
		}
		var gotR, gotW uint64
		for _, ch := range res.Channels {
			gotR += ch.Reads
			gotW += ch.Writes
		}
		if gotR != wantR || gotW != wantW {
			return false
		}
		if res.AvgLatency < 0 || res.AvgTotalLatency < res.AvgLatency {
			return false
		}
		if res.AvgPowerPerChannel <= 0 || res.AvgBandwidthPerBank <= 0 {
			return false
		}
		if res.WallTimeSeconds <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the one-pass RunSource, RunPrepared on a freshly prepared trace,
// and RunPrepared again on the same simulator (pooled engines + cached
// partition) are the same function — bit-identical Results for random
// traces and configurations. This is the live generalization of the
// committed golden fixtures.
func TestPropReplayPathEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(3000)
		events := make([]trace.Event, n)
		cycle := uint64(1)
		for i := range events {
			cycle += uint64(1 + rng.Intn(40))
			op := trace.Read
			if rng.Intn(3) == 0 {
				op = trace.Write
			}
			events[i] = trace.Event{Cycle: cycle, Op: op, Addr: uint64(rng.Int63n(1 << 26))}
		}
		channels := []int{1, 2, 4}[rng.Intn(3)]
		ctrl := []float64{400, 666, 1250, 1600}[rng.Intn(4)]
		cpu := []float64{2000, 3000, 5000, 6500}[rng.Intn(4)]
		var cfg Config
		switch rng.Intn(4) {
		case 0:
			cfg = NewDRAMConfig(channels, cpu, ctrl)
		case 1:
			cfg = NewNVMConfig(channels, cpu, ctrl, NVMTRCDSweep(ctrl)[rng.Intn(6)])
		case 2:
			cfg = NewHybridConfig(channels, cpu, ctrl, NVMTRCDSweep(ctrl)[rng.Intn(6)], 0.25)
		default:
			cfg = NewHybridConfig(channels, cpu, ctrl, NVMTRCDSweep(ctrl)[rng.Intn(6)], 0.25)
			cfg.HybridMode = HybridFlat
		}
		if rng.Intn(2) == 0 {
			cfg.Scheduler = FCFS
		}
		if rng.Intn(2) == 0 {
			cfg.Policy = ClosedPage
		}
		if rng.Intn(4) == 0 {
			cfg.Mapping = MapChannelBlocked
		}
		sim, err := New(cfg)
		if err != nil {
			return false
		}
		want, err := sim.RunSource(trace.NewSliceSource(events))
		if err != nil {
			return false
		}
		pt, err := Prepare(events)
		if err != nil {
			return false
		}
		got, err := sim.RunPrepared(pt)
		if err != nil || !reflect.DeepEqual(got, want) {
			return false
		}
		again, err := sim.RunPrepared(pt) // pooled engine + cached partition
		return err == nil && reflect.DeepEqual(again, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache-hybrid never increases total backend operations beyond
// the trace's (filtering plus writebacks stay bounded by 2× accesses).
func TestPropCacheHybridTrafficBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		events := make([]trace.Event, n)
		cycle := uint64(1)
		for i := range events {
			cycle += uint64(1 + rng.Intn(30))
			op := trace.Read
			if rng.Intn(3) == 0 {
				op = trace.Write
			}
			events[i] = trace.Event{Cycle: cycle, Op: op, Addr: uint64(rng.Int63n(1 << 22))}
		}
		cfg := NewHybridConfig(2, 2000, 666, 67, 0.25)
		cfg.CacheLines = 256 + rng.Intn(4096)
		sim, err := New(cfg)
		if err != nil {
			return false
		}
		res, err := sim.RunSource(trace.NewSliceSource(events))
		if err != nil {
			return false
		}
		var ops uint64
		for _, ch := range res.Channels {
			ops += ch.Reads + ch.Writes
		}
		return ops <= 2*uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
