// Pipeline: step through CLUGP's three restreaming passes from one run's
// trace - the view a researcher wants when studying why the partitioning
// comes out the way it does.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	g := repro.GenerateWeb(repro.WebConfig{N: 20000, OutDegree: 8, IntraSite: 0.85, Seed: 5})
	fmt.Printf("graph: %d vertices, %d edges\n\n", g.NumVertices, g.NumEdges())

	p := &repro.CLUGP{Seed: 5}
	res, err := repro.RunPartitioner(p, g, 16, 5)
	if err != nil {
		log.Fatal(err)
	}
	tr := p.LastTrace

	// Pass 1: streaming clustering (allocation-splitting-migration).
	fmt.Println("pass 1 - streaming clustering")
	fmt.Printf("  clusters:    %d\n", tr.NumClusters)
	fmt.Printf("  splits:      %d\n", tr.Splits)
	fmt.Printf("  migrations:  %d\n", tr.Migrations)

	// The cluster graph the game plays on.
	intra := int64(math.Round(tr.IntraFraction * float64(g.NumEdges())))
	inter := int64(g.NumEdges()) - intra
	fmt.Printf("  intra edges: %d of %d (%.1f%%)\n\n", intra, g.NumEdges(), 100*tr.IntraFraction)

	// Pass 2: the cluster-partitioning potential game.
	fmt.Println("pass 2 - cluster partitioning game")
	fmt.Printf("  batches:     %d\n", tr.GameBatches)
	fmt.Printf("  rounds:      %d (Theorem 6 bounds this by %d)\n", tr.GameRounds, inter)
	fmt.Printf("  moves:       %d strategy changes to reach Nash equilibrium\n\n", tr.GameMoves)

	// Pass 3: transformation to the edge partitioning.
	q := res.Quality
	fmt.Println("pass 3 - partition transformation")
	fmt.Printf("  healed:      %.1f%% of inter-cluster edges landed co-partitioned\n", 100*tr.HealedFraction)
	fmt.Printf("  overflow:    %d edges rerouted by the tau balance guard\n", tr.Overflowed)
	fmt.Printf("  result:      RF %.3f, balance %.3f over %d partitions\n",
		q.ReplicationFactor, q.RelativeBalance, q.K)
}
