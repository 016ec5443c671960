package memsim

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := NewHybridConfig(4, 6500, 1250, 125, 0.25)
	orig.HybridMode = HybridFlat
	orig.Scheduler = FCFS
	orig.Policy = ClosedPage
	var buf bytes.Buffer
	if err := SaveConfig(&buf, &orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != Hybrid || got.HybridMode != HybridFlat || got.Scheduler != FCFS ||
		got.Policy != ClosedPage || got.Channels != 4 || got.Timing.TRCD != 125 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestLoadConfigValidates(t *testing.T) {
	// Structurally valid JSON but an invalid configuration (no TBURST).
	bad := `{"Channels": 2, "RanksPerChannel": 1, "BanksPerRank": 8, "RowsPerBank": 64,
		"CPUFreqMHz": 2000, "CtrlFreqMHz": 400}`
	if _, err := LoadConfig(strings.NewReader(bad)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader(`{"NotAField": 1}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
	if _, err := LoadConfig(strings.NewReader(`{broken`)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	orig := NewNVMConfig(2, 3000, 666, 67)
	if err := SaveConfigFile(path, &orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != NVM || got.Timing.TRCD != 67 || got.CtrlFreqMHz != 666 {
		t.Fatalf("file round trip: %+v", got)
	}
	if _, err := LoadConfigFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestRefreshModel(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(10000, 17))
	base := NewDRAMConfig(2, 2000, 400)
	refreshed := NewDRAMConfig(2, 2000, 400)
	refreshed.Timing.TREFI = 3120 // 7.8 µs at 400 MHz
	refreshed.Timing.TRFC = 140
	refreshed.Energy.ERefresh = 20
	a := runCfg(t, base, pt)
	b := runCfg(t, refreshed, pt)
	var refreshes uint64
	for _, ch := range b.Channels {
		refreshes += ch.Refreshes
	}
	if refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
	for _, ch := range a.Channels {
		if ch.Refreshes != 0 {
			t.Fatal("refresh disabled config recorded refreshes")
		}
	}
	// Refresh steals bank time and burns energy: total latency and power
	// cannot improve.
	if b.AvgTotalLatency < a.AvgTotalLatency {
		t.Fatalf("refresh reduced total latency: %v vs %v", b.AvgTotalLatency, a.AvgTotalLatency)
	}
	if b.TotalEnergyNJ <= a.TotalEnergyNJ {
		t.Fatalf("refresh energy missing: %v vs %v", b.TotalEnergyNJ, a.TotalEnergyNJ)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	pt := mustPrepare(t, scatterTrace(20000, 18))
	res := runCfg(t, NewNVMConfig(2, 2000, 400, 40), pt)
	if !(res.TotalLatencyP50 <= res.TotalLatencyP95 && res.TotalLatencyP95 <= res.TotalLatencyP99) {
		t.Fatalf("percentiles not monotone: %v %v %v",
			res.TotalLatencyP50, res.TotalLatencyP95, res.TotalLatencyP99)
	}
	if res.TotalLatencyP50 <= 0 {
		t.Fatalf("p50 = %v", res.TotalLatencyP50)
	}
	// Log2-bucket estimates are coarse; the mean must sit within the
	// histogram's range.
	if res.AvgTotalLatency > 4*res.TotalLatencyP99 {
		t.Fatalf("mean %v wildly above p99 %v", res.AvgTotalLatency, res.TotalLatencyP99)
	}
}

func TestLatencyPercentileHelper(t *testing.T) {
	var hist [64]uint64
	// 100 samples of latency ~8 (bucket 4: values 8..15).
	hist[4] = 100
	p := latencyPercentile(&hist, 100, 0.5)
	if p < 8 || p > 16 {
		t.Fatalf("p50 estimate %v outside bucket", p)
	}
	if latencyPercentile(&hist, 0, 0.5) != 0 {
		t.Fatal("empty histogram should give 0")
	}
	var zeroBucket [64]uint64
	zeroBucket[0] = 10
	if latencyPercentile(&zeroBucket, 10, 0.5) != 0 {
		t.Fatal("zero-latency bucket should estimate 0")
	}
}

func TestResultStringFlatHybrid(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(2000, 19))
	cfg := NewHybridConfig(2, 2000, 400, 40, 0.25)
	cfg.HybridMode = HybridFlat
	res := runCfg(t, cfg, pt)
	if s := res.String(); s == "" {
		t.Fatal("empty render")
	}
	if res.CacheHitRate != 0 {
		t.Fatalf("flat hybrid cache hit rate = %v", res.CacheHitRate)
	}
}

func TestQueueDepthSensitivity(t *testing.T) {
	// A deeper controller queue admits more requests before stalling, so the
	// queue-inclusive total latency grows with depth under saturation while
	// front-end stalls shrink.
	pt := mustPrepare(t, scatterTrace(15000, 20))
	shallow := NewNVMConfig(2, 2000, 400, 80)
	shallow.QueueDepth = 4
	deep := NewNVMConfig(2, 2000, 400, 80)
	deep.QueueDepth = 64
	a := runCfg(t, shallow, pt)
	b := runCfg(t, deep, pt)
	if b.AvgTotalLatency <= a.AvgTotalLatency {
		t.Fatalf("deeper queue should raise total latency under saturation: %v vs %v",
			b.AvgTotalLatency, a.AvgTotalLatency)
	}
	var stallsA, stallsB uint64
	for _, ch := range a.Channels {
		stallsA += ch.StallCycles
	}
	for _, ch := range b.Channels {
		stallsB += ch.StallCycles
	}
	if stallsB >= stallsA {
		t.Fatalf("deeper queue should reduce front-end stalls: %d vs %d", stallsB, stallsA)
	}
}
