package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	spans := []Span{
		{Name: "post", ID: 1, Start: 0, End: 100},
		{Name: "decode", ID: 1, Parent: "post", Start: 10, End: 30},
		// Two children on different lanes overlapping in [50,60): the union
		// [40,70) counts once.
		{Name: "close", Lane: "shard0", ID: 1, Parent: "post", Start: 40, End: 60},
		{Name: "close", Lane: "shard1", ID: 1, Parent: "post", Start: 50, End: 70},
		// A child that outlives its parent is clipped at the parent's end.
		{Name: "deliver", ID: 1, Parent: "post", Start: 90, End: 150},
		// Same names under another ID belong to another chunk.
		{Name: "post", ID: 2, Start: 200, End: 260},
		{Name: "decode", ID: 2, Parent: "post", Start: 200, End: 260},
		// A grandchild shortens its own parent only.
		{Name: "price", ID: 1, Parent: "close", Start: 45, End: 55},
	}
	self := SelfTimes(spans)
	want := []int64{
		100 - 20 - 30 - 10, // post#1: decode 20, closes' union 30, deliver clipped to 10
		20,                 // decode#1
		20 - 10,            // close on shard0: price covers [45,55)
		20 - 5,             // close on shard1: price clipped to [50,55)
		60,                 // deliver
		0,                  // post#2 fully covered
		60,                 // decode#2
		10,                 // price
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s#%d): self %d, want %d", i, spans[i].Name, spans[i].ID, self[i], want[i])
		}
	}
	tot := Totals(spans)
	if got := tot["post"]; got.Count != 2 || got.Dur != 160 || got.Self != 40 {
		t.Errorf("Totals[post] = %+v, want count 2, dur 160, self 40", got)
	}
}

func TestLaneCoverUnionsRootSpans(t *testing.T) {
	spans := []Span{
		{Name: "a", Lane: "client", ID: 1, Start: 0, End: 10},
		{Name: "a", Lane: "client", ID: 2, Start: 5, End: 20},
		{Name: "a", Lane: "client", ID: 3, Start: 30, End: 40},
		{Name: "b", Lane: "client", ID: 3, Parent: "a", Start: 0, End: 1000}, // not a root
		{Name: "c", Lane: "shard0", ID: 1, Start: 0, End: 7},
	}
	cover := LaneCover(spans)
	if cover["client"] != 30 || cover["shard0"] != 7 {
		t.Errorf("LaneCover = %v, want client 30, shard0 7", cover)
	}
}

func TestWriteChromeIsLoadableJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trace.json")
	err := WriteChrome(path, []Span{{Name: "post", Lane: "client", ID: 3, Start: 1500, End: 4500}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "post" && ev.Ph == "X" && ev.Ts == 1.5 && ev.Dur == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no complete event for the span in %s", raw)
	}
}
