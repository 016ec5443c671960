package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlagsWriteProfiles runs each profile flag alone and both
// together: every requested profile must be written and non-empty, and an
// unrequested one must not appear.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	for _, c := range []struct{ name, cpu, mem string }{
		{"cpu", "cpu.pprof", ""},
		{"mem", "", "mem.pprof"},
		{"both", "cpu.pprof", "mem.pprof"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := func(name string) string {
				if name == "" {
					return ""
				}
				return filepath.Join(dir, name)
			}
			stop, err := startProfiles(path(c.cpu), path(c.mem))
			if err != nil {
				t.Fatal(err)
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"cpu.pprof", "mem.pprof"} {
				fi, err := os.Stat(filepath.Join(dir, name))
				wanted := name == c.cpu || name == c.mem
				switch {
				case wanted && err != nil:
					t.Errorf("%s not written: %v", name, err)
				case wanted && fi.Size() == 0:
					t.Errorf("%s is empty", name)
				case !wanted && err == nil:
					t.Errorf("%s written without its flag", name)
				}
			}
		})
	}
}
