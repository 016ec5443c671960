package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyPins are DefaultSeed's digests at the tiny size, which set-up
// checks in the tests as it checks pins in full-size runs.
var tinyPins = map[string]map[string]string{
	"paper-workflow": {"records": "9f4635f833ec6d3a", "table1": "2f8106827e82f728", "recommend": "06287431ac1e7bc4"},
	"daemon-jobs":    {"records": "8f4d24285bb49e64"},
}

// tiny shrinks a workload so a test runs it in seconds: small graphs, the
// 26-point sub-space, one set-up and a handful of operations.
func tiny(name string, traced bool) (workload, runConfig) {
	w := workloads[name]
	cfg := runConfig{Workload: name, Seed: DefaultSeed, Duration: time.Millisecond, Traced: traced, Setups: 1, MinOps: 1,
		RefPins: tinyPins[name]}
	if traced {
		cfg.MinOps = 2
	}
	cfg.Workflow = workflowSize{Vertices: 64, EdgeFactor: 4, Space: subSpace(), ReplayPerType: 1}
	cfg.Daemon = w.daemon
	cfg.Daemon.Vertices, cfg.Daemon.EdgeFactor, cfg.Daemon.ReplayPerType = 64, 4, 1
	if name == "daemon-jobs" {
		// Two set-ups so the second daemon recovers the first one's spool.
		cfg.Setups, cfg.MinOps = 2, 4*cfg.MinOps
	}
	return w, cfg
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			w, cfg := tiny(name, traced)
			cfg.Workdir = t.TempDir()
			var log bytes.Buffer
			rep, err := execute(context.Background(), w, cfg, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < cfg.MinOps {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, rep.Correct, rep.Attempted, rep.Failed, log.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			n := 0
			for _, m := range metricTable {
				if m.Kind != want {
					continue
				}
				n++
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if m.Kind == endToEnd && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if len(rep.Metrics) != n {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), n)
			}
		}
	}
}

func TestOutputCheckCatchesCorruptDigest(t *testing.T) {
	corrupt := map[string]string{"records": "0000000000000000"}
	for _, name := range sortedKeys(workloads) {
		// The run's own seed is pinned wrong, or DefaultSeed's pins, which
		// set-up checks on every seed, are.
		for _, pinned := range []string{"run", "set-up"} {
			w, cfg := tiny(name, false)
			cfg.Workdir = t.TempDir()
			if pinned == "run" {
				cfg.Pins = corrupt
			} else {
				cfg.Seed, cfg.RefPins = HeldOutSeed, corrupt
			}
			var log bytes.Buffer
			rep, err := execute(context.Background(), w, cfg, &log)
			if err != nil {
				t.Fatalf("%s %s: %v", name, pinned, err)
			}
			if rep.Correct || rep.Failed == 0 {
				t.Errorf("%s: corrupt %s pin passed: correct=%v failed=%d", name, pinned, rep.Correct, rep.Failed)
			}
			if !strings.Contains(log.String(), "wrong output") {
				t.Errorf("%s: mismatch of %s pin not reported:\n%s", name, pinned, log.String())
			}
		}
	}
}

func TestPinnedDigestsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size workloads")
	}
	for _, name := range sortedKeys(workloads) {
		for _, seed := range []int64{DefaultSeed, HeldOutSeed} {
			w := workloads[name]
			if got, want := len(pins[name][seed]), len(tinyPins[name]); got != want {
				t.Errorf("%s seed %d: %d pinned digests, want %d", name, seed, got, want)
			}
			cfg := runConfig{Workload: name, Seed: seed, Duration: time.Millisecond, Setups: 1, MinOps: 1,
				Workdir: t.TempDir(), Pins: pins[name][seed], RefPins: pins[name][DefaultSeed],
				Workflow: w.workflow, Daemon: w.daemon}
			var log bytes.Buffer
			rep, err := execute(context.Background(), w, cfg, &log)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !rep.Correct {
				t.Errorf("%s seed %d: %s", name, seed, log.String())
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: "a", Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Op: "a", Name: "x", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Op: "a", Name: "y", StartNS: 30, EndNS: 50},  // overlaps x
		{ID: 4, Parent: 1, Op: "a", Name: "z", StartNS: 90, EndNS: 120}, // runs past the parent
		{ID: 5, Parent: 2, Op: "a", Name: "w", StartNS: 15, EndNS: 20},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	got := opTotals(spans, []string{"a", "b"}, "x", "", self)
	if got[0] != (25*time.Nanosecond).Seconds() || got[1] != 0 {
		t.Errorf("opTotals = %v", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || len(names) != len(workloads) {
			t.Errorf("BENCHMARK.json workloads %v, program has %v", names, sortedKeys(workloads))
			break
		}
	}
	var e2e, layer []metricJSON
	for _, m := range metricTable {
		j := metricJSON{Name: m.Name, Unit: m.Unit, Better: m.Better}
		if m.Kind == endToEnd {
			b := m.Bound
			j.Bound = &b
			e2e = append(e2e, j)
		} else {
			layer = append(layer, j)
		}
	}
	compare := func(kind string, got, want []metricJSON) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (g.Bound == nil) != (w.Bound == nil) ||
				(g.Bound != nil && *g.Bound != *w.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, e2e)
	compare("per_layer", bf.PerLayer, layer)
}

func TestHostSpeedScaling(t *testing.T) {
	h, err := newHostSpeed()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.sample()
	if len(h.samples) != 1 || h.samples[0] <= 0 {
		t.Fatalf("kernel samples %v", h.samples)
	}
	// A host at half the reference speed doubles the kernel's time and the
	// operations' wall-clock times alike; the scaled times do not change.
	// Each operation is scaled by the mean of the samples around it; the
	// last one, after the final sample, by that sample alone.
	h.samples = []float64{2 * refKernelSeconds, 2 * refKernelSeconds, 6 * refKernelSeconds, 2 * refKernelSeconds}
	v := map[string]float64{}
	setups := []timing{{8, 0}, {12, 1}}
	ops := []timing{{8, 2}, {2, 3}, {6, 0}}
	scaleTimes(v, h, setups, ops)
	want := map[string]float64{
		"setup_s":                            (4 + 3) / 2.0,
		"time_to_recommendation_s":           2,
		"time_to_recommendation_p90_s":       2.8,
		"host.kernel_s":                      2 * refKernelSeconds,
		"host.wall_time_to_recommendation_s": 6,
	}
	for k, w := range want {
		if math.Abs(v[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, v[k], w)
		}
	}
}
