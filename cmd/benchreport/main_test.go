package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: graphdse
BenchmarkFigure2Sweep-8   	       1	105103041 ns/op
BenchmarkTraceConvertParallel-8    	       3	  41234567 ns/op	  87.65 MB/s	 1024 B/op	      12 allocs/op
BenchmarkTable1Training-16         	       2	  52000000 ns/op	  2048 B/op	       3 allocs/op
PASS
ok  	graphdse	12.345s
`

func TestParse(t *testing.T) {
	entries, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	wantNames := []string{"BenchmarkFigure2Sweep", "BenchmarkTable1Training", "BenchmarkTraceConvertParallel"}
	for i, w := range wantNames {
		if entries[i].Name != w {
			t.Fatalf("entry %d name %q, want %q", i, entries[i].Name, w)
		}
	}
	conv := entries[2]
	if conv.Iterations != 3 || conv.NsPerOp != 41234567 || conv.MBPerSec != 87.65 ||
		conv.BytesPerOp != 1024 || conv.AllocsPerOp != 12 {
		t.Fatalf("convert entry: %+v", conv)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":           "BenchmarkX",
		"BenchmarkX/sub-case-16": "BenchmarkX/sub-case",
		"BenchmarkPlain":         "BenchmarkPlain",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseKeepsNumericSubNames runs the same benchmarks at GOMAXPROCS 1,
// 2 and 4: a sub-benchmark whose own name ends in -<digits> must keep it,
// and all three runs must yield the same name set.
func TestParseKeepsNumericSubNames(t *testing.T) {
	want := []string{"BenchmarkAblation/trees-10", "BenchmarkAblation/trees-50", "BenchmarkLinearFit"}
	for _, suffix := range []string{"", "-2", "-4"} {
		out := "BenchmarkAblation/trees-10" + suffix + "   1   100 ns/op\n" +
			"BenchmarkAblation/trees-50" + suffix + "   1   200 ns/op\n" +
			"BenchmarkLinearFit" + suffix + "   1   300 ns/op\n"
		entries, err := parse(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if got := names(entries); !reflect.DeepEqual(got, want) {
			t.Errorf("suffix %q: names %v, want %v", suffix, got, want)
		}
	}
}

// TestCheckFailsOnMissingBenchmark proves the drift check is not vacuous:
// a baseline benchmark absent from the input fails -check, and so does a
// benchmark the baseline does not know.
func TestCheckFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := run(strings.NewReader(sample), baseline, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sample), "", baseline, ""); err != nil {
		t.Fatalf("identical name set rejected: %v", err)
	}
	var dropped []string
	for _, line := range strings.Split(sample, "\n") {
		if !strings.HasPrefix(line, "BenchmarkTable1Training") {
			dropped = append(dropped, line)
		}
	}
	err := run(strings.NewReader(strings.Join(dropped, "\n")), "", baseline, "")
	if err == nil || !strings.Contains(err.Error(), "missing: [BenchmarkTable1Training]") {
		t.Fatalf("missing benchmark: err = %v", err)
	}
	added := sample + "BenchmarkNew-8   1   5 ns/op\n"
	if err := run(strings.NewReader(added), "", baseline, ""); err == nil {
		t.Fatal("new benchmark passed the check")
	}
}

func TestDiffNames(t *testing.T) {
	missing, extra := diffNames([]string{"A", "B", "C"}, []string{"B", "C", "D"})
	if len(missing) != 1 || missing[0] != "A" {
		t.Fatalf("missing = %v", missing)
	}
	if len(extra) != 1 || extra[0] != "D" {
		t.Fatalf("extra = %v", extra)
	}
}

func TestAnnotateBaseline(t *testing.T) {
	entries, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	base := &Report{Entries: []Entry{
		{Name: "BenchmarkFigure2Sweep", NsPerOp: 210206082, AllocsPerOp: 7},
		{Name: "BenchmarkGone", NsPerOp: 99},
	}}
	annotate(entries, base)
	sweep := entries[0]
	if sweep.Name != "BenchmarkFigure2Sweep" {
		t.Fatalf("unexpected order: %+v", entries)
	}
	if sweep.BaselineNsPerOp != 210206082 || sweep.BaselineAllocsPerOp != 7 {
		t.Fatalf("baseline fields not folded in: %+v", sweep)
	}
	if sweep.SpeedupVsBaseline < 1.99 || sweep.SpeedupVsBaseline > 2.01 {
		t.Fatalf("speedup = %v, want ~2.0", sweep.SpeedupVsBaseline)
	}
	// Entries without a baseline counterpart stay unannotated.
	if entries[1].BaselineNsPerOp != 0 || entries[1].SpeedupVsBaseline != 0 {
		t.Fatalf("unmatched entry annotated: %+v", entries[1])
	}
}
