package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 30..40 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d is %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := New()
	p := r.Start("server.ServeHTTP", 0, 7)
	time.Sleep(time.Millisecond)
	if d := r.End(p); d < time.Millisecond {
		t.Fatalf("span lasted %v", d)
	}
	r.Derive(p, []string{"core.parse", "core.search"}, []time.Duration{10, 20})
	r.Enable(false)
	if id := r.Start("ignored", 0, 8); id != 0 || r.End(id) != 0 {
		t.Fatal("a disabled recorder recorded")
	}
	r.Enable(true)

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	a, b := spans[1], spans[2]
	if !a.Derived || a.Parent != p || a.Req != 7 || a.Start != spans[0].Start || a.Dur() != 10 || b.Start != a.End || b.Dur() != 20 {
		t.Fatalf("derived spans laid out wrong: %+v %+v", a, b)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := Write(path, File{Workload: "hot", Seed: 1, Spans: spans}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(raw, &back); err != nil || len(back.Spans) != 3 || back.Spans[1].Name != "core.parse" {
		t.Fatalf("trace file does not round-trip: %v %+v", err, back)
	}
}
