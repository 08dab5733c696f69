package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("group")
	if sp != nil {
		t.Fatalf("nil trace returned non-nil span")
	}
	sp.SetWorkers(8)
	sp.Add("x", 1)
	sp.End()
	tr.Add("y", 2)
	tr.Max("z", 3)
	if got := tr.Stages(); got != nil {
		t.Fatalf("nil trace has stages: %v", got)
	}
	if got := tr.TotalMS(); got != 0 {
		t.Fatalf("nil trace TotalMS = %v", got)
	}
	if got := tr.Clone(); got != nil {
		t.Fatalf("nil trace cloned to %v", got)
	}
}

// TestClone: a clone starts with the original's spans, durations,
// workers and counters on the same clock, and from then on the two
// record independently.
func TestClone(t *testing.T) {
	tr := New()
	sp := tr.Start("group")
	sp.SetWorkers(2)
	sp.Add("bisections", 7)
	sp.End()
	c := tr.Clone()
	if got, want := c.Stages(), tr.Stages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("clone stages %+v, want %+v", got, want)
	}
	c.Start("map").End()
	tr.Start("map").Add("swaps", 1)
	if got := c.Stages(); len(got) != 2 || got[1].Counters != nil || got[0].Counters["bisections"] != 7 {
		t.Fatalf("clone picked up the original's later writes: %+v", got)
	}
	if got := tr.Stages(); len(got) != 2 || got[1].Counters["swaps"] != 1 {
		t.Fatalf("original picked up the clone's writes: %+v", got)
	}
	if c.Stages()[0].StartMS != tr.Stages()[0].StartMS {
		t.Fatal("clone does not share the original's clock start")
	}
}

func TestSpanOrderAndCounters(t *testing.T) {
	tr := New()
	a := tr.Start("group")
	tr.Add("bisections", 3)
	tr.Max("depth", 2)
	tr.Max("depth", 5)
	tr.Max("depth", 4)
	a.SetWorkers(4)
	a.End()
	b := tr.Start("map")
	b.Add("swaps", 7)
	b.Add("swaps", 2)
	b.End()

	stages := tr.Stages()
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}
	if stages[0].Name != "group" || stages[1].Name != "map" {
		t.Fatalf("stage order %q, %q", stages[0].Name, stages[1].Name)
	}
	if stages[0].Workers != 4 {
		t.Fatalf("workers = %d, want 4", stages[0].Workers)
	}
	if stages[0].Counters["bisections"] != 3 || stages[0].Counters["depth"] != 5 {
		t.Fatalf("group counters = %v", stages[0].Counters)
	}
	if stages[1].Counters["swaps"] != 9 {
		t.Fatalf("map counters = %v", stages[1].Counters)
	}
	if stages[1].StartMS < stages[0].StartMS {
		t.Fatalf("stage starts out of order: %v then %v", stages[0].StartMS, stages[1].StartMS)
	}
}

func TestAddOutsideSpanIsDropped(t *testing.T) {
	tr := New()
	tr.Add("orphan", 1) // no open span: dropped, not panicking
	sp := tr.Start("s")
	sp.End()
	tr.Add("late", 1) // span already ended: dropped
	stages := tr.Stages()
	if len(stages) != 1 || len(stages[0].Counters) != 0 {
		t.Fatalf("orphan counters leaked: %+v", stages)
	}
}

func TestConcurrentAdds(t *testing.T) {
	tr := New()
	sp := tr.Start("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.Add("n", 1)
				tr.Max("m", int64(j))
			}
		}()
	}
	wg.Wait()
	sp.End()
	st := tr.Stages()[0]
	if st.Counters["n"] != 8000 {
		t.Fatalf("n = %d, want 8000", st.Counters["n"])
	}
	if st.Counters["m"] != 999 {
		t.Fatalf("m = %d, want 999", st.Counters["m"])
	}
}

func TestDurationsCoverWork(t *testing.T) {
	tr := New()
	sp := tr.Start("sleep")
	time.Sleep(5 * time.Millisecond)
	sp.End()
	st := tr.Stages()[0]
	if st.DurMS < 4 {
		t.Fatalf("span dur %.3fms, want >= ~5ms", st.DurMS)
	}
	if tot := tr.TotalMS(); tot < st.DurMS {
		t.Fatalf("TotalMS %.3f below span dur %.3f", tot, st.DurMS)
	}
}

func TestFormat(t *testing.T) {
	tr := New()
	sp := tr.Start("group")
	tr.Add("bisections", 3)
	sp.SetWorkers(2)
	sp.End()
	out := Format(tr.Stages(), tr.TotalMS())
	if !strings.Contains(out, "group") || !strings.Contains(out, "workers=2") || !strings.Contains(out, "bisections=3") {
		t.Fatalf("format output missing fields:\n%s", out)
	}
}
