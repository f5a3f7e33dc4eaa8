package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json this program reads: the
// workloads a default run measures, and the metric sets every run must
// report, with their units, directions and bounds.
type benchSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// check verifies that a run reports exactly the declared metric set, each
// in its declared unit.
func (s *benchSpec) check(r *runResult, perLayer bool) error {
	want := s.EndToEnd
	if perLayer {
		want = s.PerLayer
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%s: reported %d metrics, BENCHMARK.json declares %d", r.Workload, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s missing", r.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", r.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

// lookup returns the declared metric of that name.
func (s *benchSpec) lookup(name string) (specMetric, bool) {
	for _, set := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

// rank orders metrics for printing: end-to-end first, then per-layer, in
// declaration order, then everything else.
func (s *benchSpec) rank(name string) int {
	for i, m := range s.EndToEnd {
		if m.Name == name {
			return i
		}
	}
	for i, m := range s.PerLayer {
		if m.Name == name {
			return len(s.EndToEnd) + i
		}
	}
	return len(s.EndToEnd) + len(s.PerLayer)
}
