package metrics

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// TestStateCanonicalAcrossLayouts: the checkpoint encodings are defined
// over the logical, vertex-major state - a flat table and a sharded table
// with the same contents must serialize to identical bytes for any shard
// count, and each layout must load the other's bytes. This is what lets a
// run checkpointed at one worker configuration resume under another.
func TestStateCanonicalAcrossLayouts(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 21))
	for _, geo := range []struct{ n, k int }{{100, 4}, {257, 64}, {64, 65}} {
		flat := NewReplicaSets(geo.n, geo.k)
		deg := make([]uint32, geo.n)
		for i := 0; i < geo.n*4; i++ {
			v := graph.VertexID(rng.IntN(geo.n))
			flat.Add(v, rng.IntN(geo.k))
			deg[v]++
		}
		flatBytes := flat.AppendState(nil)
		degBytes := AppendDegreeState(nil, deg)

		for _, shards := range []int{1, 3, 8} {
			shd := NewShardedReplicaSets(geo.n, geo.k, shards)
			rem, err := shd.LoadState(flatBytes)
			if err != nil {
				t.Fatalf("n=%d k=%d shards=%d: %v", geo.n, geo.k, shards, err)
			}
			if len(rem) != 0 {
				t.Fatalf("sharded load left %d bytes", len(rem))
			}
			if got := shd.AppendState(nil); !bytes.Equal(got, flatBytes) {
				t.Fatalf("n=%d k=%d shards=%d: sharded bytes differ from flat", geo.n, geo.k, shards)
			}
			for v := 0; v < geo.n; v++ {
				if flat.Count(graph.VertexID(v)) != shd.Count(graph.VertexID(v)) {
					t.Fatalf("v=%d: replica count diverged after load", v)
				}
			}
		}

		// Flat round trip through a fresh table.
		back := NewReplicaSets(geo.n, geo.k)
		if rem, err := back.LoadState(flatBytes); err != nil || len(rem) != 0 {
			t.Fatalf("flat reload: rem %d, err %v", len(rem), err)
		}
		if got := back.AppendState(nil); !bytes.Equal(got, flatBytes) {
			t.Fatal("flat reload changed the bytes")
		}
		degBack := make([]uint32, geo.n)
		if rem, err := LoadDegreeState(degBack, degBytes); err != nil || len(rem) != 0 {
			t.Fatalf("degree reload: rem %d, err %v", len(rem), err)
		}
		if got := AppendDegreeState(nil, degBack); !bytes.Equal(got, degBytes) {
			t.Fatal("degree reload changed the bytes")
		}
	}
}

// TestStateLoadRejectsForgery: state blobs arrive from checkpoint files, so
// loads validate against the receiver's geometry - replica bits naming
// partitions past k, degrees overflowing uint32, stray seen bits, truncated
// streams and trailing bytes all reject.
func TestStateLoadRejectsForgery(t *testing.T) {
	t.Run("replica bits above k", func(t *testing.T) {
		rs := NewReplicaSets(4, 5) // one word, bits 5..63 invalid
		bad := appendUvarint(nil, 1<<7)
		for i := 0; i < 3; i++ {
			bad = appendUvarint(bad, 0)
		}
		if _, err := rs.LoadState(bad); err == nil {
			t.Fatal("replica word with a bit above k-1 loaded")
		}
	})
	t.Run("degree overflow", func(t *testing.T) {
		bad := appendUvarint(nil, 1<<33)
		if _, err := LoadDegreeState(make([]uint32, 1), bad); err == nil {
			t.Fatal("degree past uint32 loaded")
		}
	})
	t.Run("truncated stream", func(t *testing.T) {
		rs := NewReplicaSets(8, 4)
		data := rs.AppendState(nil)
		if _, err := NewReplicaSets(8, 4).LoadState(data[:len(data)/2]); err == nil {
			t.Fatal("truncated replica state loaded")
		}
	})
	t.Run("stray seen bits", func(t *testing.T) {
		seen := make([]bool, 5) // 3 padding bits in the single bitmap byte
		if _, err := loadSeenState(seen, []byte{0xE0}); err == nil {
			t.Fatal("seen bitmap with padding bits set loaded")
		}
	})
	t.Run("evaluator trailing bytes", func(t *testing.T) {
		var ev Evaluator
		ev.Begin(10, 4)
		data := ev.AppendState(nil)
		var back Evaluator
		back.Begin(10, 4)
		if err := back.LoadState(append(data, 0)); err == nil {
			t.Fatal("evaluator state with trailing bytes loaded")
		}
	})
}

// TestEvaluatorStateInterchange: quality accounting checkpointed by the
// serial evaluator restores into the parallel one and vice versa, and a
// restored evaluator finishes with exactly the quality of one that observed
// the whole stream - the evaluator half of the bit-identical resume.
func TestEvaluatorStateInterchange(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	n, k := 500, 8
	edges, assign := randAssigned(rng, n, k, 4000)
	half := len(edges) / 2

	var full Evaluator
	full.Begin(n, k)
	if err := full.Observe(edges, assign); err != nil {
		t.Fatal(err)
	}
	want := full.Finish()

	var first Evaluator
	first.Begin(n, k)
	if err := first.Observe(edges[:half], assign[:half]); err != nil {
		t.Fatal(err)
	}
	state := first.AppendState(nil)

	// Serial -> serial.
	var ser Evaluator
	ser.Begin(n, k)
	if err := ser.LoadState(state); err != nil {
		t.Fatal(err)
	}
	if err := ser.Observe(edges[half:], assign[half:]); err != nil {
		t.Fatal(err)
	}
	if got := ser.Finish(); !qualityEqual(got, want) {
		t.Fatalf("serial restore: %+v, want %+v", got, want)
	}

	// Serial -> parallel.
	var par ParallelEvaluator
	par.Begin(n, k, 4)
	defer par.Stop()
	if err := par.LoadState(state); err != nil {
		t.Fatal(err)
	}
	if err := par.Observe(edges[half:], assign[half:]); err != nil {
		t.Fatal(err)
	}
	if got := par.Finish(); !qualityEqual(got, want) {
		t.Fatalf("parallel restore: %+v, want %+v", got, want)
	}

	// Parallel -> serial: the parallel evaluator's snapshot must be the
	// same canonical bytes.
	var parFirst ParallelEvaluator
	parFirst.Begin(n, k, 3)
	defer parFirst.Stop()
	if err := parFirst.Observe(edges[:half], assign[:half]); err != nil {
		t.Fatal(err)
	}
	pstate := parFirst.AppendState(nil)
	if !bytes.Equal(pstate, state) {
		t.Fatal("parallel evaluator state bytes differ from serial for the same prefix")
	}
}
