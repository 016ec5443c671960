package memsim

import (
	"errors"
	"math/rand"
	"testing"

	"graphdse/internal/trace"
)

// invariantTrace builds a deterministic mixed read/write trace.
func invariantTrace(n int) []trace.Event {
	rng := rand.New(rand.NewSource(11))
	events := make([]trace.Event, n)
	for i := range events {
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		events[i] = trace.Event{
			Cycle: uint64(i * 3),
			Op:    op,
			Addr:  uint64(rng.Intn(1<<20)) * 64,
		}
	}
	return events
}

func TestValidatePhysicalAcceptsRealResults(t *testing.T) {
	pt := mustPrepare(t, invariantTrace(4000))
	configs := map[string]Config{
		"dram":       NewDRAMConfig(2, 2000, 400),
		"nvm":        NewNVMConfig(4, 3000, 666, 50),
		"hybrid":     NewHybridConfig(2, 2000, 400, 40, 0.25),
		"hybridFlat": func() Config { c := NewHybridConfig(2, 2000, 400, 40, 0.5); c.HybridMode = HybridFlat; return c }(),
	}
	for name, cfg := range configs {
		res := runCfg(t, cfg, pt)
		if err := res.ValidatePhysical(int64(pt.Len())); err != nil {
			t.Errorf("%s: healthy result rejected: %v", name, err)
		}
	}
}

func TestValidatePhysicalRejectsImpossibleBandwidth(t *testing.T) {
	pt := mustPrepare(t, invariantTrace(500))
	res := runCfg(t, NewDRAMConfig(2, 2000, 400), pt)
	peak := PeakBandwidthPerBankMBs(&res.Config)
	if res.AvgBandwidthPerBank > peak {
		t.Fatalf("simulator itself exceeds peak: %v > %v", res.AvgBandwidthPerBank, peak)
	}
	poisoned := *res
	poisoned.AvgBandwidthPerBank = peak * 10
	// Finite and positive: the NaN gate does not catch it…
	if err := poisoned.ValidateMetrics(); err != nil {
		t.Fatalf("ValidateMetrics unexpectedly rejected: %v", err)
	}
	// …the physical gate does.
	err := poisoned.ValidatePhysical(int64(pt.Len()))
	if !errors.Is(err, ErrPhysicalInvariant) {
		t.Fatalf("impossible bandwidth accepted: %v", err)
	}
}

func TestValidatePhysicalRejectsSubFloorLatency(t *testing.T) {
	pt := mustPrepare(t, invariantTrace(500))
	res := runCfg(t, NewNVMConfig(2, 2000, 400, 50), pt)
	floor := MinDeviceLatencyCycles(&res.Config)
	if res.AvgLatency < floor {
		t.Fatalf("simulator itself undercuts floor: %v < %v", res.AvgLatency, floor)
	}
	poisoned := *res
	poisoned.AvgLatency = floor / 2
	if err := poisoned.ValidatePhysical(int64(pt.Len())); !errors.Is(err, ErrPhysicalInvariant) {
		t.Fatalf("sub-floor latency accepted: %v", err)
	}
}

func TestValidatePhysicalRejectsZeroPowerAndBadOps(t *testing.T) {
	pt := mustPrepare(t, invariantTrace(500))
	res := runCfg(t, NewDRAMConfig(2, 2000, 400), pt)
	noPower := *res
	noPower.AvgPowerPerChannel = 0
	if err := noPower.ValidatePhysical(int64(pt.Len())); !errors.Is(err, ErrPhysicalInvariant) {
		t.Fatalf("zero power accepted: %v", err)
	}
	badOps := *res
	badOps.AvgReadsPerChannel *= 3
	if err := badOps.ValidatePhysical(int64(pt.Len())); !errors.Is(err, ErrPhysicalInvariant) {
		t.Fatalf("inflated op count accepted: %v", err)
	}
	// With an unknown trace length the ops check is skipped.
	if err := badOps.ValidatePhysical(0); errors.Is(err, ErrPhysicalInvariant) {
		t.Fatalf("ops check ran without a trace length: %v", err)
	}
}

func TestMetamorphicPeakMonotonicInChannels(t *testing.T) {
	for _, mk := range []func(ch int) Config{
		func(ch int) Config { return NewDRAMConfig(ch, 2000, 1600) },
		func(ch int) Config { return NewNVMConfig(ch, 2000, 400, 50) },
		func(ch int) Config { return NewHybridConfig(ch, 2000, 666, 50, 0.25) },
	} {
		base, more := mk(2), mk(4)
		if err := base.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := more.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := MetamorphicPeakCheck(&base, &more); err != nil {
			t.Errorf("metamorphic violation: %v", err)
		}
	}
	// Misuse (non-increasing channels) is reported, not silently passed.
	a, b := NewDRAMConfig(4, 2000, 400), NewDRAMConfig(2, 2000, 400)
	if err := MetamorphicPeakCheck(&a, &b); err == nil {
		t.Fatal("decreasing channels must be rejected")
	}
}
