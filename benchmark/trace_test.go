package main

import "testing"

func TestSelfTimeNestedAndAdjacentChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Adjacent children: [10, 30) and [30, 50) cover 40.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A grandchild is covered by its parent, not the root.
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
		// Overlapping children (a fan-out) count once: [60, 80) ∪ [70, 90).
		{ID: 5, Parent: 1, Name: "d", Start: 60, End: 80},
		{ID: 6, Parent: 1, Name: "d", Start: 70, End: 90},
		// A child running past its parent's end is clipped.
		{ID: 7, Parent: 2, Name: "e", Start: 25, End: 40},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 30, 2: 20 - 5, 3: 20 - 10, 4: 10, 5: 20, 6: 20, 7: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if d := sum["d"]; d.Count != 2 || d.BusyMS != 40e-6 || d.MedianUS != 0.02 {
		t.Errorf("summary of d = %+v", d)
	}
}

func TestRecorderParentsShareTrace(t *testing.T) {
	rec := newRecorder()
	root := rec.start(nil, "root")
	rec.timed(root, "child", func() string { return "fell back" })
	root.end("")
	other := rec.start(nil, "other")
	other.end("")
	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, o := byName["root"], byName["child"], byName["other"]
	if c.Parent != r.ID || c.Trace != r.Trace || c.Fail != "fell back" {
		t.Errorf("child %+v under root %+v", c, r)
	}
	if o.Trace == r.Trace || o.Parent != 0 {
		t.Errorf("second root %+v shares trace with %+v", o, r)
	}
	if c.Start < r.Start || c.End > r.End {
		t.Errorf("child [%d, %d] outside root [%d, %d]", c.Start, c.End, r.Start, r.End)
	}
}
