package partition

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/stream"
)

// TestStateBytesMatchLiveHeap holds each state report to the live heap:
// at every hold a forced collection measures how far the live heap has
// grown since the run began, and the report must be within 15% of that
// growth. The run's evaluator table and the source's block buffer are
// made before the run's base is read, and the assignment lands in a
// preallocated window, so the growth is the algorithm's own. One-pass algorithms report once, after their
// loop; CLUGP reports its pass-1 tables, its build's peak, the tables
// the game leaves and pass 3's record. The build's report is its peak,
// which its garbage no longer shows by the time it returns, so it is held
// to the build's allocation instead (cluster.TestBuildBytesMatchAllocation);
// the other three are held to the heap here.
func TestStateBytesMatchLiveHeap(t *testing.T) {
	g := webGraph(100000, 5)
	for _, tc := range []struct {
		p     Partitioner
		k     int
		holds int
		skip  int // the hold that is not compared (-1: none)
	}{
		{&DBH{}, 64, 1, -1},
		{&Greedy{}, 64, 1, -1},
		{&HDRF{}, 64, 1, -1},
		{&Mint{}, 64, 1, -1},
		{&CLUGP{Seed: 1}, 32, 4, 1},
		{&CLUGP{Seed: 1}, 256, 4, 1},
	} {
		src := stream.NewView(g, tc.p.PreferredOrder(), 1).Source(g.NumVertices)
		sink := &assignSink{assign: make([]int32, src.Len())}
		sink.ev.Begin(g.NumVertices, tc.k)
		if err := sink.ev.Observe(nil, nil); err != nil { // makes the table
			t.Fatal(err)
		}
		if _, err := src.NextBlock(); err != nil { // makes the block buffer
			t.Fatal(err)
		}
		var held, grew []int64
		base := liveHeap()
		sink.onHold = func(bytes int64) {
			held = append(held, bytes)
			grew = append(grew, int64(liveHeap())-int64(base))
		}
		if err := tc.p.run(src, tc.k, sink); err != nil {
			t.Fatal(err)
		}
		// The source's ordered edges must stay live through every hold, or
		// a hold after the last pass would see them collected.
		runtime.KeepAlive(src)
		sink.ev.Finish()
		if len(held) != tc.holds {
			t.Fatalf("%s k=%d: %d state reports, want %d", tc.p.Name(), tc.k, len(held), tc.holds)
		}
		for i := range held {
			t.Logf("%s k=%d hold %d: %.3f MB reported, live heap grew %.3f MB",
				tc.p.Name(), tc.k, i, float64(held[i])/(1<<20), float64(grew[i])/(1<<20))
			if i != tc.skip && math.Abs(float64(held[i])/float64(grew[i])-1) > 0.15 {
				t.Errorf("%s k=%d hold %d: reported %d bytes, live heap grew %d: off by more than 15%%",
					tc.p.Name(), tc.k, i, held[i], grew[i])
			}
		}
		if sink.held != slices.Max(held) {
			t.Errorf("%s k=%d: sink keeps %d, not the largest report of %v", tc.p.Name(), tc.k, sink.held, held)
		}
	}
}

// liveHeap collects and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
