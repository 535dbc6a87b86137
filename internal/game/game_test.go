package game

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// testClusterGraph builds a cluster graph from a generated web graph.
func testClusterGraph(t testing.TB, n int, vmaxDiv int, seed uint64) *cluster.Graph {
	t.Helper()
	g := gen.Web(gen.WebConfig{N: n, OutDegree: 6, CopyFactor: 0.6, Seed: seed})
	s := stream.NewView(g, stream.BFS, 0).Source(g.NumVertices)
	res, err := cluster.Run(s, cluster.Config{Vmax: int64(s.Len()/vmaxDiv + 1)})
	if err != nil {
		t.Fatal(err)
	}
	res.Compact()
	cg, err := cluster.BuildGraph(s, res)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

func TestSolveValidAssignment(t *testing.T) {
	cg := testClusterGraph(t, 3000, 32, 1)
	for _, k := range []int{1, 2, 7, 16} {
		asg, err := Solve(cg, Config{K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(asg.Partition) != cg.NumClusters {
			t.Fatalf("k=%d: %d assignments for %d clusters", k, len(asg.Partition), cg.NumClusters)
		}
		for c, p := range asg.Partition {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: cluster %d assigned to %d", k, c, p)
			}
		}
		if asg.Rounds < 1 {
			t.Fatalf("k=%d: no rounds played", k)
		}
	}
}

func TestSolveRejectsBadConfig(t *testing.T) {
	cg := testClusterGraph(t, 500, 8, 2)
	if _, err := Solve(cg, Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := Solve(cg, Config{K: 4, RelWeight: 1.5}); err == nil {
		t.Fatal("RelWeight=1.5 accepted")
	}
	if _, err := Solve(cg, Config{K: 4, MaxRounds: -1}); err == nil {
		t.Fatal("MaxRounds=-1 accepted")
	}
}

// TestSolveRoundsAtCap: a game stopped by MaxRounds reports the rounds it
// played, not one past the cap.
func TestSolveRoundsAtCap(t *testing.T) {
	cg := testClusterGraph(t, 2000, 16, 2)
	asg, err := Solve(cg, Config{K: 8, Seed: 1, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if asg.Moves == 0 {
		t.Fatal("one round from a random start moved nothing; the cap was not exercised")
	}
	if asg.Rounds != 1 {
		t.Fatalf("Rounds = %d at MaxRounds 1, want 1", asg.Rounds)
	}
}

func TestSolveEmptyGraph(t *testing.T) {
	cg := &cluster.Graph{NumClusters: 0}
	asg, err := Solve(cg, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg.Partition) != 0 {
		t.Fatal("nonempty assignment for empty cluster graph")
	}
}

func TestSolveDeterministic(t *testing.T) {
	cg := testClusterGraph(t, 2000, 16, 3)
	a, err := Solve(cg, Config{K: 8, Seed: 5, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(cg, Config{K: 8, Seed: 5, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Partition {
		if a.Partition[c] != b.Partition[c] {
			t.Fatalf("same seed diverged at cluster %d", c)
		}
	}
}

// TestNashEquilibrium verifies the defining property: after Solve with a
// single batch, no cluster can lower its individual cost by unilaterally
// switching partitions.
func TestNashEquilibrium(t *testing.T) {
	cg := testClusterGraph(t, 1500, 16, 4)
	k := 6
	lambda := LambdaMax(cg, k)
	asg, err := Solve(cg, Config{K: k, Lambda: lambda, Seed: 2, BatchSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	assign := asg.Partition
	for c := 0; c < cg.NumClusters; c++ {
		cur := IndividualCost(cg, assign, cluster.ID(c), k, lambda)
		orig := assign[c]
		for p := int32(0); p < int32(k); p++ {
			if p == orig {
				continue
			}
			assign[c] = p
			if alt := IndividualCost(cg, assign, cluster.ID(c), k, lambda); alt < cur-1e-6 {
				t.Fatalf("cluster %d can improve %v -> %v by moving %d->%d", c, cur, alt, orig, p)
			}
		}
		assign[c] = orig
	}
}

// TestExactPotential checks Theorem 4: for any unilateral deviation, the
// change of the potential function equals the change of the deviating
// cluster's individual cost.
func TestExactPotential(t *testing.T) {
	cg := testClusterGraph(t, 1000, 8, 5)
	k := 5
	lambda := LambdaMax(cg, k)
	rng := xrand.New(11)
	assign := make([]int32, cg.NumClusters)
	for c := range assign {
		assign[c] = int32(rng.Intn(k))
	}
	for trial := 0; trial < 200; trial++ {
		c := cluster.ID(rng.Intn(cg.NumClusters))
		newP := int32(rng.Intn(k))
		oldP := assign[c]
		if newP == oldP {
			continue
		}
		phiBefore := IndividualCost(cg, assign, c, k, lambda)
		potBefore := Potential(cg, assign, k, lambda)
		assign[c] = newP
		phiAfter := IndividualCost(cg, assign, c, k, lambda)
		potAfter := Potential(cg, assign, k, lambda)
		dPhi := phiAfter - phiBefore
		dPot := potAfter - potBefore
		if math.Abs(dPhi-dPot) > 1e-6*(1+math.Abs(dPhi)) {
			t.Fatalf("trial %d: delta phi %v != delta Phi %v", trial, dPhi, dPot)
		}
	}
}

// TestGlobalCostIsSumOfIndividual checks Equation 12: the global deployment
// cost decomposes into the sum of individual costs.
func TestGlobalCostIsSumOfIndividual(t *testing.T) {
	cg := testClusterGraph(t, 800, 8, 6)
	k := 4
	lambda := 0.7
	rng := xrand.New(3)
	assign := make([]int32, cg.NumClusters)
	for c := range assign {
		assign[c] = int32(rng.Intn(k))
	}
	var sum float64
	for c := 0; c < cg.NumClusters; c++ {
		sum += IndividualCost(cg, assign, cluster.ID(c), k, lambda)
	}
	global := GlobalCost(cg, assign, k, lambda)
	if math.Abs(sum-global) > 1e-6*(1+math.Abs(global)) {
		t.Fatalf("sum of individual costs %v != global cost %v", sum, global)
	}
}

// TestSolveImprovesPotential: equilibrium potential must not exceed the
// potential of the random initial assignment (best-response dynamics only
// ever decrease Phi).
func TestSolveImprovesPotential(t *testing.T) {
	cg := testClusterGraph(t, 2000, 32, 7)
	k := 8
	lambda := LambdaMax(cg, k)
	// Reconstruct the same initial assignment Solve uses for a single batch.
	rng := xrand.New(uint64(9) ^ (0x9e3779b97f4a7c15 * uint64(0+1)))
	initial := make([]int32, cg.NumClusters)
	for c := range initial {
		initial[c] = int32(rng.Intn(k))
	}
	before := Potential(cg, initial, k, lambda)
	asg, err := Solve(cg, Config{K: k, Lambda: lambda, Seed: 9, BatchSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	after := Potential(cg, asg.Partition, k, lambda)
	if after > before+1e-9 {
		t.Fatalf("equilibrium potential %v exceeds initial %v", after, before)
	}
}

// TestRoundComplexityBound sanity-checks Theorem 6's spirit: convergence in
// far fewer rounds than the inter-cluster edge count.
func TestRoundComplexityBound(t *testing.T) {
	cg := testClusterGraph(t, 3000, 32, 8)
	asg, err := Solve(cg, Config{K: 8, Seed: 1, BatchSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	if int64(asg.Rounds) > cg.TotalInter {
		t.Fatalf("%d rounds exceeds Theorem 6 bound %d", asg.Rounds, cg.TotalInter)
	}
}

// TestPoSBound exercises Theorem 8's consequence on small instances where
// the optimum can be brute-forced: the best Nash equilibrium found is
// within factor 2 of the optimum (we check the weaker: the equilibrium we
// find is within factor 2 of optimum on cost, using Phi(opt) <= Phi(eq)).
func TestPoSBoundSmall(t *testing.T) {
	// 4 clusters, k=2, brute force 16 assignments.
	cg := &cluster.Graph{
		NumClusters: 4,
		Intra:       []int64{4, 3, 2, 1},
		Adj: [][]cluster.Arc{
			{{To: 1, W: 5}},
			{{To: 0, W: 5}, {To: 2, W: 1}},
			{{To: 1, W: 1}, {To: 3, W: 4}},
			{{To: 2, W: 4}},
		},
		TotalIntra: 10,
		TotalInter: 10,
	}
	k := 2
	lambda := LambdaMax(cg, k)
	best := math.Inf(1)
	assign := make([]int32, 4)
	for mask := 0; mask < 16; mask++ {
		for c := 0; c < 4; c++ {
			assign[c] = int32((mask >> uint(c)) & 1)
		}
		if cost := GlobalCost(cg, assign, k, lambda); cost < best {
			best = cost
		}
	}
	asg, err := Solve(cg, Config{K: k, Lambda: lambda, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := GlobalCost(cg, asg.Partition, k, lambda)
	if got > 2*best+1e-9 {
		t.Fatalf("equilibrium cost %v > 2x optimum %v", got, best)
	}
}

func TestGreedyAssignBalances(t *testing.T) {
	cg := testClusterGraph(t, 3000, 64, 9)
	k := 8
	asg := GreedyAssign(cg, k)
	load := make([]int64, k)
	for c, p := range asg.Partition {
		if p < 0 || int(p) >= k {
			t.Fatalf("invalid partition %d", p)
		}
		load[p] += cg.Intra[c]
	}
	var min, max int64 = math.MaxInt64, 0
	for _, l := range load {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// LPT guarantees max <= avg + largest item; on many small clusters the
	// spread should be tight.
	if min == 0 && cg.TotalIntra > int64(4*k) {
		t.Fatalf("greedy left a partition empty: %v", load)
	}
	if float64(max) > 1.5*float64(cg.TotalIntra)/float64(k)+float64(maxIntra(cg)) {
		t.Fatalf("greedy imbalance: loads %v", load)
	}
}

func maxIntra(cg *cluster.Graph) int64 {
	var m int64
	for _, v := range cg.Intra {
		if v > m {
			m = v
		}
	}
	return m
}

func TestLambdaMax(t *testing.T) {
	cg := testClusterGraph(t, 1000, 8, 10)
	sumW := cg.TotalWeight()
	for _, k := range []int{2, 8, 32} {
		lm := LambdaMax(cg, k)
		want := float64(k*k) * float64(cg.TotalInter) / (float64(sumW) * float64(sumW))
		if math.Abs(lm-want) > 1e-12 {
			t.Fatalf("LambdaMax(k=%d) = %v, want %v", k, lm, want)
		}
	}
	empty := &cluster.Graph{NumClusters: 2, Intra: []int64{0, 0}, Adj: make([][]cluster.Arc, 2)}
	if lm := LambdaMax(empty, 4); lm != 1 {
		t.Fatalf("LambdaMax of edge-free graph = %v, want 1", lm)
	}
}

func TestBatchingStillBalances(t *testing.T) {
	cg := testClusterGraph(t, 4000, 64, 11)
	k := 8
	asg, err := Solve(cg, Config{K: k, Seed: 1, BatchSize: 4 * k})
	if err != nil {
		t.Fatal(err)
	}
	load := make([]int64, k)
	for c, p := range asg.Partition {
		load[p] += cg.Intra[c]
	}
	var max int64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	avg := float64(cg.TotalIntra) / float64(k)
	if float64(max) > 2.5*avg+float64(maxIntra(cg)) {
		t.Fatalf("batched game imbalance: max %d vs avg %.0f", max, avg)
	}
	if asg.Batches < 2 {
		t.Fatalf("expected multiple batches, got %d", asg.Batches)
	}
}

func TestSortBySizeDesc(t *testing.T) {
	check := func(sizes []int64) bool {
		if len(sizes) == 0 {
			return true
		}
		for i := range sizes {
			if sizes[i] < 0 {
				sizes[i] = -sizes[i]
			}
		}
		order := make([]int32, len(sizes))
		for i := range order {
			order[i] = int32(i)
		}
		sortBySizeDesc(order, sizes)
		seen := make([]bool, len(sizes))
		for i, c := range order {
			if seen[c] {
				return false
			}
			seen[c] = true
			// Descending, and stable: equal sizes keep their id order.
			if i > 0 && (sizes[order[i-1]] < sizes[c] || sizes[order[i-1]] == sizes[c] && order[i-1] > c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerPoolInvariantToThreads pins the bounded-worker-pool rewrite:
// with BatchSize=1 the game degenerates to one batch per cluster (thousands
// of batches), and the assignment must be identical for any worker count -
// including Threads far above and far below the batch count - with no
// goroutine left behind after Solve returns.
func TestWorkerPoolInvariantToThreads(t *testing.T) {
	cg := testClusterGraph(t, 4000, 64, 3)
	if cg.NumClusters < 100 {
		t.Fatalf("want a many-batch scenario, got %d clusters", cg.NumClusters)
	}
	before := runtime.NumGoroutine()
	var first *Assignment
	for _, threads := range []int{1, 3, 64, 10000} {
		asg, err := Solve(cg, Config{K: 8, Seed: 5, BatchSize: 1, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if asg.Batches != cg.NumClusters {
			t.Fatalf("threads=%d: %d batches, want %d", threads, asg.Batches, cg.NumClusters)
		}
		if first == nil {
			first = asg
			continue
		}
		for c := range first.Partition {
			if asg.Partition[c] != first.Partition[c] {
				t.Fatalf("threads=%d: assignment differs at cluster %d", threads, c)
			}
		}
		if asg.Rounds != first.Rounds || asg.Moves != first.Moves {
			t.Fatalf("threads=%d: stats differ (%d/%d vs %d/%d)", threads, asg.Rounds, asg.Moves, first.Rounds, first.Moves)
		}
	}
	// Give exited workers a beat, then check the pool cleaned up.
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Solve leaked goroutines: %d before, %d after", before, after)
	}
}
