package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call into a layer. Spans of one request share a
// trace id; a span's parent is the span that caused it (0 for a root).
// Times are nanoseconds since the recorder was created.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Fail names why the call failed or fell back (empty on success).
	Fail string `json:"fail,omitempty"`
}

// recorder keeps the spans of one traced run in memory; they are written
// out only when the run ends, so tracing adds no I/O to the traced calls.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is a started span; end records it.
type active struct {
	rec *recorder
	s   span
}

// start opens a span named name under parent (nil for a root span of a new
// trace).
func (r *recorder) start(parent *active, name string) *active {
	s := span{ID: r.nextID.Add(1), Name: name}
	if parent != nil {
		s.Trace, s.Parent = parent.s.Trace, parent.s.ID
	} else {
		s.Trace = r.nextID.Add(1) // ids and trace ids share one counter
	}
	s.Start = int64(time.Since(r.epoch))
	return &active{rec: r, s: s}
}

// end closes the span; fail is empty for a successful call.
func (a *active) end(fail string) {
	a.s.End = int64(time.Since(a.rec.epoch))
	a.s.Fail = fail
	a.rec.mu.Lock()
	a.rec.spans = append(a.rec.spans, a.s)
	a.rec.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(parent *active, name string, fn func() string) time.Duration {
	a := r.start(parent, name)
	fail := fn()
	a.end(fail)
	return time.Duration(a.s.End - a.s.Start)
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (a fan-out)
// are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how much of [start, end) the union of the spans covers.
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, start), min(k.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Count int `json:"count"`
	// BusyMS is the summed self time, in milliseconds.
	BusyMS float64 `json:"busy_ms"`
	// MedianUS is the median call duration, in microseconds.
	MedianUS float64 `json:"median_us"`
	// Failed counts calls that failed or fell back.
	Failed int `json:"failed"`
}

// summarize groups spans by name.
func summarize(spans []span) map[string]layerSummary {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := map[string]layerSummary{}
	for _, s := range spans {
		ls := out[s.Name]
		ls.Count++
		ls.BusyMS += float64(self[s.ID]) / 1e6
		if s.Fail != "" {
			ls.Failed++
		}
		out[s.Name] = ls
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
	}
	for name, ls := range out {
		ls.MedianUS = median(durs[name])
		out[name] = ls
	}
	return out
}

// medianUS returns the median duration of the spans named name, in
// microseconds, or 0 when there are none.
func medianUS(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name && s.Fail == "" {
			d = append(d, float64(s.End-s.Start)/1e3)
		}
	}
	return median(d)
}

// traceFile is what a traced run writes to <dir>/<workload>.trace.json.
type traceFile struct {
	Workload string                  `json:"workload"`
	Seed     int64                   `json:"seed"`
	Metrics  map[string]metric       `json:"metrics"`
	Layers   map[string]layerSummary `json:"layers"`
	Spans    []span                  `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tf.Workload+".trace.json"), b, 0o644)
}
