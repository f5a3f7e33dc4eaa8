package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse beyond bound"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
	// Per-layer metrics have no bound: a change either clears the parent's
	// spread or stays within its noise.
	verdictLayerWorse = "worse"
	verdictNoise      = "within noise"
)

// compareMetric judges one metric of one workload between an old and a
// new result. delta is the relative change of the median, positive when
// the new side is better. The rules follow the choosing-metrics method:
//
//   - a spread (quartile distance over median) wider than the bound on
//     either side makes the metric unresolved, unless every new run reads
//     better than every old run;
//   - worse by more than the bound is a regression;
//   - better means the median moved by more than the old side's own spread
//     and the new side wins at least nine tenths of the (old, new) pairs.
func compareMetric(m specMetric, old, new []float64) (delta float64, verdict string) {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	om, nm := median(old), median(new)
	if om != 0 {
		delta = sign * (nm - om) / math.Abs(om)
	}
	wins, losses, pairs := 0, 0, 0
	for _, o := range old {
		for _, n := range new {
			pairs++
			switch d := sign * (n - o); {
			case d > 0:
				wins++
			case d < 0:
				losses++
			}
		}
	}
	winShare := float64(wins) / float64(max(pairs, 1))
	lossShare := float64(losses) / float64(max(pairs, 1))
	oldSpread := spread(old)
	bounded := m.Bound > 0

	switch {
	case bounded && math.Max(oldSpread, spread(new)) > m.Bound:
		if wins == pairs {
			return delta, verdictBetter
		}
		return delta, verdictUnresolved
	case bounded && delta < -m.Bound:
		return delta, verdictWorse
	case delta > oldSpread && winShare >= 0.9:
		return delta, verdictBetter
	case !bounded && -delta > oldSpread && lossShare >= 0.9:
		return delta, verdictLayerWorse
	case bounded:
		return delta, verdictWithin
	default:
		return delta, verdictNoise
	}
}

// compareFiles prints, for every declared metric of every workload present
// in both result files, the old and new median with quartiles, the change
// and the verdict. It exits 1 when any bounded metric got worse beyond its
// bound.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) (int, error) {
	old, err := readResult(oldPath)
	if err != nil {
		return 1, err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "old: %s, commit %s, seed %d\nnew: %s, commit %s, seed %d\n",
		old.Env.CPU, old.Env.Commit, old.Seed, cur.Env.CPU, cur.Env.Commit, cur.Seed)
	code := 0
	for _, name := range old.names() {
		ow, nw := old.Workloads[name], cur.Workloads[name]
		if nw == nil {
			continue
		}
		var keys []string
		for k := range ow.Summary {
			if _, ok := nw.Summary[k]; !ok {
				continue
			}
			if _, declared := spec.lookup(k); declared {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return spec.rank(keys[i]) < spec.rank(keys[j]) })
		fmt.Fprintf(w, "%s\n", name)
		for _, k := range keys {
			m, _ := spec.lookup(k)
			o, n := ow.Summary[k], nw.Summary[k]
			delta, v := compareMetric(m, o.Values, n.Values)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "  %-34s %-6s old %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  %+.1f%%  %s\n",
				k, m.Unit, o.Median, o.Q1, o.Q3, n.Median, n.Q1, n.Q3, 100*delta, v)
		}
	}
	return code, nil
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
