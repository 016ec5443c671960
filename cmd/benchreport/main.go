// Command benchreport converts `go test -bench` text output into the
// canonical BENCH_baseline.json format: a sorted, versioned JSON document
// that CI regenerates on every run and diffs against the committed baseline
// for structural drift (benchmarks appearing or disappearing silently).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -benchtime=1x ./... | benchreport -out BENCH_baseline.json
//	benchreport -check BENCH_baseline.json < bench.txt
//	benchreport -out BENCH_pr7.json -baseline BENCH_before.json < bench.txt
//
// With -check, benchreport exits non-zero if the benchmark NAMES in the
// input differ from the baseline's — timings are machine-dependent and are
// never compared. With -baseline, the written report embeds the prior
// report's ns/op and allocs/op per entry plus a speedup ratio, producing a
// self-contained before/after snapshot for the repo's perf trajectory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"graphdse/internal/artifact"
)

// Entry is one benchmark result. The baseline_* fields appear only in
// reports written with -baseline: they snapshot the prior run the report
// was measured against, making a perf-trajectory document (BENCH_pr7.json
// and successors) self-contained.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`

	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op,omitempty"`
	// SpeedupVsBaseline is baseline_ns_per_op / ns_per_op (>1 is faster).
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// Report is the whole document.
type Report struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	// Baseline names the report annotated into the baseline_* fields.
	Baseline string  `json:"baseline,omitempty"`
	Entries  []Entry `json:"entries"`
}

// benchLine matches one result line, e.g.
//
//	BenchmarkFigure2Sweep-8   10   105103041 ns/op   16 B/op   2 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// parse reads go-test bench output into sorted entries.
func parse(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		e := Entry{Name: m[1], Iterations: iters, NsPerOp: ns}
		rest := strings.Fields(m[4])
		for i := 0; i+1 < len(rest); i += 2 {
			val, unit := rest[i], rest[i+1]
			switch unit {
			case "B/op":
				e.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				e.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "MB/s":
				e.MBPerSec, _ = strconv.ParseFloat(val, 64)
			}
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// go test appends -N to every result name when GOMAXPROCS is N > 1 and
	// nothing when it is 1. A name may end in -<digits> of its own, so the
	// suffix is taken for GOMAXPROCS only when every line carries one.
	suffixed := true
	for _, e := range entries {
		if stripProcs(e.Name) == e.Name {
			suffixed = false
			break
		}
	}
	if suffixed {
		for i := range entries {
			entries[i].Name = stripProcs(entries[i].Name)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// stripProcs drops a trailing -N, the GOMAXPROCS suffix go test appends, so
// names are stable across runner shapes.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// names extracts the sorted benchmark name set.
func names(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// annotate folds a baseline report's timings into entries sharing a name,
// so the written report carries its own before/after comparison.
func annotate(entries []Entry, base *Report) {
	prior := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		prior[e.Name] = e
	}
	for i := range entries {
		b, ok := prior[entries[i].Name]
		if !ok {
			continue
		}
		entries[i].BaselineNsPerOp = b.NsPerOp
		entries[i].BaselineAllocsPerOp = b.AllocsPerOp
		if entries[i].NsPerOp > 0 && b.NsPerOp > 0 {
			entries[i].SpeedupVsBaseline = b.NsPerOp / entries[i].NsPerOp
		}
	}
}

func run(in io.Reader, outPath, checkPath, baselinePath string) error {
	entries, err := parse(in)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark results on input (run with -bench and pipe the output here)")
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			return err
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", checkPath, err)
		}
		got, want := names(entries), names(base.Entries)
		missing, extra := diffNames(want, got)
		if len(missing) > 0 || len(extra) > 0 {
			return fmt.Errorf("benchmark set drifted from %s:\n  missing: %v\n  new: %v\n(regenerate the baseline with -out if this is intentional)",
				checkPath, missing, extra)
		}
		fmt.Printf("benchreport: %d benchmarks match the %s name set\n", len(got), checkPath)
		return nil
	}
	rep := Report{Schema: 1, GoVersion: runtime.Version(), Entries: entries}
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			return err
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", baselinePath, err)
		}
		annotate(rep.Entries, &base)
		rep.Baseline = baselinePath
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return artifact.WriteFileAtomic(outPath, 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// diffNames returns baseline names absent from got and got names absent
// from the baseline. Both inputs are sorted.
func diffNames(want, got []string) (missing, extra []string) {
	inWant := map[string]bool{}
	for _, n := range want {
		inWant[n] = true
	}
	inGot := map[string]bool{}
	for _, n := range got {
		inGot[n] = true
	}
	for _, n := range want {
		if !inGot[n] {
			missing = append(missing, n)
		}
	}
	for _, n := range got {
		if !inWant[n] {
			extra = append(extra, n)
		}
	}
	return missing, extra
}

func main() {
	out := flag.String("out", "-", "write the JSON report here (- for stdout)")
	check := flag.String("check", "", "instead of writing, compare the input's benchmark names against this baseline")
	baseline := flag.String("baseline", "", "annotate the written report with before/after deltas against this prior report")
	flag.Parse()
	if err := run(os.Stdin, *out, *check, *baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
}
