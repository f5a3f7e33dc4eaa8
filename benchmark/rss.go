package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssWatch follows a running process's peak resident set size, VmHWM in
// /proc/<pid>/status, sampled every 20 ms. The kernel's ru_maxrss is not
// used: Go starts children with CLONE_VM, so a child's ru_maxrss also
// counts this program's own peak at the moment it spawned the child (an
// 8-second cmd/augment run read 66 MiB or 92 MiB depending on what this
// program had allocated before).
type rssWatch struct {
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	peakKB int64 // written by the sampling goroutine only, read after done
}

func watchRSS(pid int) *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", pid)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb, ok := readHWM(path); ok && kb > w.peakKB {
				w.peakKB = kb
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// peakMB stops sampling and returns the highest peak seen, in MiB. Growth
// in the process's last 20 ms can be missed.
func (w *rssWatch) peakMB() float64 {
	w.once.Do(func() { close(w.stop) })
	<-w.done
	return float64(w.peakKB) / 1024
}

// readHWM reads VmHWM (in kB) from a /proc status file; ok is false once
// the process is gone.
func readHWM(path string) (int64, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}
