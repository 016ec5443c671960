package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"

	"graphdse/internal/artifact"
)

// startProfiles starts the profiles that -cpuprofile and -memprofile ask
// for; an empty path turns that profile off. The CPU profile is collected
// in memory from now on. The returned stop ends it and writes it to
// cpuPath, then writes the allocation profile (every allocation since the
// process started, as `go test -memprofile` records) to memPath. Both files
// are written atomically and read with `go tool pprof`.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu bytes.Buffer
	if cpuPath != "" {
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuPath != "" {
			pprof.StopCPUProfile()
			if err := artifact.WriteFileAtomic(cpuPath, 0o644, func(w io.Writer) error {
				_, err := w.Write(cpu.Bytes())
				return err
			}); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			runtime.GC() // bring the in-use figures up to date
			if err := artifact.WriteFileAtomic(memPath, 0o644, func(w io.Writer) error {
				return pprof.Lookup("allocs").WriteTo(w, 0)
			}); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}
