package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestReadHWM(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc")
	}
	if kb, ok := readHWM("/proc/self/status"); !ok || kb <= 0 {
		t.Fatalf("VmHWM of this process: %d kB, ok %v", kb, ok)
	}
	status := filepath.Join(t.TempDir(), "status")
	if err := os.WriteFile(status, []byte("Name:\tx\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if kb, ok := readHWM(status); !ok || kb != 12345 {
		t.Errorf("readHWM = %d, %v", kb, ok)
	}
	if _, ok := readHWM(filepath.Join(t.TempDir(), "gone")); ok {
		t.Error("a missing process read as present")
	}
	w := watchRSS(os.Getpid())
	if mb := w.peakMB(); mb <= 0 {
		t.Errorf("watched peak %g MiB", mb)
	}
	w.peakMB() // stopping twice is harmless
}
