package dataset

import (
	"fmt"
	"reflect"
	"testing"
)

func splitFixture() []SVASample {
	var out []SVASample
	for m := 0; m < 12; m++ {
		for k := 0; k < 3; k++ {
			out = append(out, SVASample{
				ID:     fmt.Sprintf("m%02d_bug%d", m, k),
				Module: fmt.Sprintf("m%02d", m),
				Lines:  20 + (m%3)*60, // three bins
			})
		}
	}
	return out
}

// splitSamples splits an in-memory sample set the way augment.Split does a
// stream: collect the module names per bin, pick the train names, route
// each sample by SideOf. Dropped samples go to neither side.
func splitSamples(samples []SVASample, trainFrac float64, seed int64) (train, test []SVASample) {
	var names ModuleNames
	for i := range samples {
		names.Add(&samples[i])
	}
	trainNames := TrainNames(names.ByBin, trainFrac, seed)
	for _, s := range samples {
		switch SideOf(trainNames, s.Module, s.TrainOnly()) {
		case SideTrain:
			train = append(train, s)
		case SideTest:
			test = append(test, s)
		}
	}
	return train, test
}

func TestSplitByModuleEmptyInput(t *testing.T) {
	train, test := splitSamples(nil, 0.9, 1)
	if len(train) != 0 || len(test) != 0 {
		t.Fatalf("empty input produced %d/%d samples", len(train), len(test))
	}
}

// TestSplitByModuleTrainFracOne: even at TrainFrac=1 every multi-module
// bin keeps one held-out module, so the benchmark is never empty.
func TestSplitByModuleTrainFracOne(t *testing.T) {
	samples := splitFixture()
	train, test := splitSamples(samples, 1, 7)
	if len(train)+len(test) != len(samples) {
		t.Fatalf("split lost samples: %d+%d != %d", len(train), len(test), len(samples))
	}
	testMods := map[string]map[int]bool{}
	for _, s := range test {
		b := s.BinIndex()
		if testMods[s.Module] == nil {
			testMods[s.Module] = map[int]bool{}
		}
		testMods[s.Module][b] = true
	}
	if len(testMods) == 0 {
		t.Fatal("TrainFrac=1 left no test modules at all")
	}
	// A module with a single sample set must land wholly on one side.
	trainMods := map[string]bool{}
	for _, s := range train {
		trainMods[s.Module] = true
	}
	for m := range testMods {
		if trainMods[m] {
			t.Errorf("module %s leaked into both sides", m)
		}
	}
}

// TestSplitByModuleSingleModule: a one-module population cannot be split;
// everything trains.
func TestSplitByModuleSingleModule(t *testing.T) {
	samples := splitFixture()[:3] // all m00
	train, test := splitSamples(samples, 0.9, 3)
	if len(test) != 0 || len(train) != 3 {
		t.Fatalf("single module split %d/%d, want 3/0", len(train), len(test))
	}
}

func TestSplitByModuleDeterministic(t *testing.T) {
	samples := splitFixture()
	t1, e1 := splitSamples(samples, 0.75, 42)
	t2, e2 := splitSamples(splitFixture(), 0.75, 42)
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(e1, e2) {
		t.Fatal("same seed produced different splits")
	}
	t3, _ := splitSamples(samples, 0.75, 43)
	if reflect.DeepEqual(t1, t3) {
		t.Log("different seeds produced the same split (possible, but suspicious for this fixture)")
	}
}

// TestTrainNamesMatchesSplit: TrainNames over hand-collected names must
// pick exactly the modules the sample-level split trains, so ModuleNames
// collects the same population.
func TestTrainNamesMatchesSplit(t *testing.T) {
	samples := splitFixture()
	train, _ := splitSamples(samples, 0.8, 9)
	want := map[string]bool{}
	for _, s := range train {
		want[s.Module] = true
	}
	byBin := map[int][]string{}
	seen := map[string]bool{}
	for _, s := range samples {
		if !seen[s.Module] {
			seen[s.Module] = true
			byBin[s.BinIndex()] = append(byBin[s.BinIndex()], s.Module)
		}
	}
	got := TrainNames(byBin, 0.8, 9)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TrainNames %v != split modules %v", got, want)
	}
	// TrainNames must not mutate the caller's name slices.
	orig := append([]string(nil), byBin[0]...)
	TrainNames(byBin, 0.8, 10)
	if !reflect.DeepEqual(orig, byBin[0]) {
		t.Error("TrainNames reordered the caller's slice")
	}
}
