// Package repro is a from-scratch Go reproduction of "Clustering-based
// Partitioning for Large Web Graphs" (Kong, Xie, Zhang - ICDE 2022): the
// CLUGP three-pass restreaming vertex-cut graph partitioner, the five
// streaming baselines it is evaluated against (Hashing, DBH, Greedy, HDRF,
// Mint), deterministic web-graph generators standing in for the paper's
// crawls, the partition-quality metrics, and a simulated PowerGraph-style
// distributed GAS engine for end-to-end PageRank and label-propagation
// experiments.
//
// This file is the public facade: everything a downstream user needs is
// re-exported here, so examples and tools import only this package.
//
// Quickstart:
//
//	g := repro.GenerateWeb(repro.WebConfig{N: 100000, OutDegree: 8, Seed: 1})
//	res, err := repro.Partition(g, "CLUGP", 32, 1)
//	fmt.Println(res.Quality.ReplicationFactor)
package repro

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/edgecut"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// Graph types.
type (
	// Graph is a directed multigraph stored as an edge list.
	Graph = graph.Graph
	// Edge is a directed edge.
	Edge = graph.Edge
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// CSR is a compressed sparse row adjacency view.
	CSR = graph.CSR
	// GraphStats summarises degree structure (power-law fit etc.).
	GraphStats = graph.Stats
)

// NewGraph builds a graph from edges; n <= 0 infers the vertex count.
func NewGraph(n int, edges []Edge) *Graph { return graph.New(n, edges) }

// ReadEdgeList parses "src dst" lines (comments with '#' or '%').
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// FormatCGR3 is the compressed graph format: a run/interval/residual gap
// encoding (~1.7 bytes/edge on crawl-ordered web graphs) under a CRC32C
// per-block checksum trailer, so bit rot and torn writes are detected
// instead of decoded. The only format written and read.
const FormatCGR3 = store.FormatCGR3

// AtomicWriter writes a file so the final path only ever holds a complete
// artifact: bytes go to a temp file in the target directory, Commit fsyncs
// and renames it into place (then fsyncs the directory), and Abort - a
// no-op after Commit - discards it. Every file-writing command in this
// repo writes through it.
type AtomicWriter = store.AtomicWriter

// NewAtomicWriter starts an atomic write of path.
func NewAtomicWriter(path string) (*AtomicWriter, error) { return store.NewAtomicWriter(path) }

// VerifyInfo describes what VerifyFile found: the detected on-disk kind
// and the verified geometry.
type VerifyInfo = store.VerifyInfo

// VerifyFile checksum-scans a .cgr, .cpr or checkpoint file: every payload
// block is proven in order, so a corruption error names the first corrupt
// block.
func VerifyFile(path string) (VerifyInfo, error) { return store.VerifyFile(path) }

// WriteCompressed encodes the graph in the gap-compressed, checksummed
// binary format (CGR3), preserving edge order.
func WriteCompressed(w io.Writer, g *Graph) error { return store.Write(w, g) }

// ReadCompressed decodes a graph written by WriteCompressed, proving its
// checksums before the first edge decodes.
func ReadCompressed(r io.Reader) (*Graph, error) { return store.Read(r) }

// LoadGraph returns the named dataset preset built at scale when preset is
// set, else the graph in the file in: CGR3 when the file starts with its
// magic, a text edge list otherwise.
func LoadGraph(in, preset string, scale float64) (*Graph, error) {
	if preset != "" {
		for _, d := range Datasets() {
			if d.Name == preset {
				return d.Build(scale), nil
			}
		}
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	if in == "" {
		return nil, errors.New("need -in FILE or -preset NAME")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	if head, err := br.Peek(4); err == nil && store.SniffHeader(head) {
		return store.Read(br)
	}
	return graph.ReadEdgeList(br)
}

// BuildCSR builds an out-adjacency view.
func BuildCSR(g *Graph) *CSR { return graph.BuildCSR(g) }

// ComputeStats computes degree statistics and a power-law fit.
func ComputeStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// Generators (substitutes for the paper's crawl datasets; see DESIGN.md).
type WebConfig = gen.WebConfig

// GenerateWeb generates a site-structured copying-model web graph.
func GenerateWeb(cfg WebConfig) *Graph { return gen.Web(cfg) }

// GenerateBarabasiAlbert generates a preferential-attachment social graph.
func GenerateBarabasiAlbert(n, m int, seed uint64) *Graph { return gen.BarabasiAlbert(n, m, seed) }

// GenerateRMAT generates a recursive-matrix (Kronecker) graph.
func GenerateRMAT(scale, edgeFactor int, a, b, c float64, seed uint64) *Graph {
	return gen.RMAT(scale, edgeFactor, a, b, c, seed)
}

// GenerateErdosRenyi generates a uniform random graph (no-skew control).
func GenerateErdosRenyi(n, m int, seed uint64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// Stream orders (Definition 1; each partitioner declares its preference).
type Order = stream.Order

// StreamSource is a sequential, replayable edge stream with a known vertex
// count - the interface every partitioner and evaluator consumes.
// Compressed files open directly as sources via OpenCompressed without
// ever being materialized.
type StreamSource = stream.Source

// MmapGraphFile is the mmap-backed file source: the file is mapped once,
// edges decode straight from the mapped bytes and Reset is a pointer
// rewind, so repeat passes run at page-cache speed. Where mapping is unavailable it degrades to a portable read-at
// mode with the same contract.
type MmapGraphFile = store.MmapSource

// OrderRandom is a seeded shuffle (the one-pass heuristics' setting).
const OrderRandom = stream.Random

// StreamEdges returns the graph's edges in the requested order as a slice
// (a copy for every order but natural).
func StreamEdges(g *Graph, order Order, seed uint64) []Edge { return stream.Edges(g, order, seed) }

// StreamRetryConfig tunes RetryStream: attempts per stream position and
// which errors count as transient (nil retries everything except
// end-of-stream). A retry replays at once, without sleeping.
type StreamRetryConfig = stream.RetryConfig

// RetryStream wraps a source so transient read failures are survived by
// replaying: on a retryable error the wrapper resets the underlying
// source, skips the edges it already delivered, and resumes from the
// exact next edge, so consumers observe the identical edge sequence a
// fault-free pass would deliver. Partitioners read the wrapper like any
// source, DistributedCLUGP's ingest nodes included.
func RetryStream(src StreamSource, cfg StreamRetryConfig) StreamSource {
	return stream.Retry(src, cfg)
}

// ForEachStreamed replays a source from its first edge, passing each block
// to fn with its global edge offset (stream-aligned data such as
// PartitionResult.Assign indexes as data[off+i]).
func ForEachStreamed(src StreamSource, fn func(off int, edges []Edge) error) error {
	return stream.ForEach(src, fn)
}

// OpenCompressed opens a graph written by WriteCompressed as a replayable
// edge source: the file is mapped once (with a portable read-at fallback
// where mapping is unavailable) and edges decode straight from the mapped
// bytes. Reset is free, a pass drops the mapped pages behind it from the
// process's resident set, and the OS page cache serves repeat passes.
// This is the out-of-core entry point: the graph is never materialized.
func OpenCompressed(path string) (*MmapGraphFile, error) { return store.OpenMmap(path) }

// Partitioners.
type (
	// Partitioner assigns streamed edges to k partitions.
	Partitioner = partition.Partitioner
	// PartitionResult bundles a finished run with quality metrics.
	PartitionResult = partition.Result
	// Quality holds replication factor and balance (Section II-B).
	Quality = metrics.Quality
	// CLUGP is the paper's three-pass partitioner with all its knobs.
	CLUGP = partition.CLUGP
	// DistributedCLUGP is the Section III-C sharded-ingest mode.
	DistributedCLUGP = partition.DistributedCLUGP
)

// Edge-cut partitioning (the Section II-C comparison family).
type (
	// EdgeCutPartitioner assigns vertices (not edges) to partitions.
	EdgeCutPartitioner = edgecut.Partitioner
	// EdgeCutQuality holds cut fraction and balance for a vertex assignment.
	EdgeCutQuality = edgecut.Quality
	// LDG is the linear deterministic greedy streaming vertex partitioner.
	LDG = edgecut.LDG
	// FENNEL is the streaming vertex partitioner of Tsourakakis et al.
	FENNEL = edgecut.FENNEL
	// Multilevel is the METIS-style offline edge-cut partitioner.
	Multilevel = edgecut.Multilevel
)

// EvaluateEdgeCut computes edge-cut quality for a vertex assignment.
func EvaluateEdgeCut(g *Graph, assign []int32, k int) (*EdgeCutQuality, error) {
	return edgecut.Evaluate(g, assign, k)
}

// NewPartitioner constructs an algorithm by evaluation name
// (Hashing, DBH, Greedy, HDRF, Mint, CLUGP, CLUGP-S, CLUGP-G).
func NewPartitioner(name string, seed uint64) (Partitioner, error) {
	return partition.New(name, seed)
}

// PartitionerNames lists every name NewPartitioner accepts.
func PartitionerNames() []string { return partition.Names() }

// Suite returns the six algorithms of the paper's evaluation.
func Suite(seed uint64) []Partitioner { return partition.Suite(seed) }

// Partition runs the named algorithm over g's edges (in the algorithm's
// preferred stream order) and evaluates quality.
func Partition(g *Graph, algorithm string, k int, seed uint64) (*PartitionResult, error) {
	p, err := partition.New(algorithm, seed)
	if err != nil {
		return nil, err
	}
	return partition.Run(p, g, k, seed)
}

// RunPartitioner runs a custom-configured partitioner.
func RunPartitioner(p Partitioner, g *Graph, k int, seed uint64) (*PartitionResult, error) {
	return partition.Run(p, g, k, seed)
}

// Emit receives finalized runs of out-of-core assignments in stream order.
type Emit = partition.Emit

// OutOfCoreOptions tune the out-of-core pass: Checkpoint enables
// checkpoint/resume. Decode needs no option; a file source decodes ahead of
// the partitioner on a second goroutine at GOMAXPROCS >= 2, with results
// identical to the inline pass.
type OutOfCoreOptions = partition.OutOfCoreOptions

// RunOutOfCoreOpts partitions a source in its stored (natural) order
// without materializing the assignment: finalized runs are scored
// incrementally and forwarded to emit (nil discards them, leaving only
// quality). Peak memory is the algorithm's state plus a block buffer,
// never O(|E|). The result's Assign is nil.
func RunOutOfCoreOpts(p Partitioner, src StreamSource, k int, emit Emit, opts OutOfCoreOptions) (*PartitionResult, error) {
	return partition.RunOutOfCoreOpts(p, src, k, emit, opts)
}

// Checkpoint/resume of out-of-core runs (clugp -checkpoint/-resume).
type (
	// Checkpoint is a decoded CPK2 checkpoint record of an out-of-core run:
	// the stream offset its durable output covers and the emit watermark
	// of that output, CRC-protected on disk.
	Checkpoint = store.Checkpoint
	// CheckpointOptions configures checkpoint writing and resume for
	// RunOutOfCoreOpts (OutOfCoreOptions.Checkpoint).
	CheckpointOptions = partition.CheckpointOptions
	// CheckpointResume is a checkpoint record together with a reader of
	// the durable output prefix it points into (CheckpointOptions.Resume).
	CheckpointResume = partition.Resume
)

// LoadCheckpoint reads and integrity-verifies the checkpoint at path,
// falling back to the rotated previous checkpoint (path+".prev") when the
// newest one is corrupt or torn; it returns the checkpoint and which file
// it came from. A checkpoint that fails its CRC is never returned.
func LoadCheckpoint(path string) (*Checkpoint, string, error) { return store.LoadCheckpoint(path) }

// CheckpointPrevSuffix is appended to a checkpoint path to name the rotated
// previous checkpoint LoadCheckpoint falls back to.
const CheckpointPrevSuffix = store.CheckpointPrevSuffix

// AbortPendingWrites aborts every atomic file write that has neither
// committed nor aborted, removing the temp files, and returns how many were
// swept. Commands call it from signal handlers so an interrupt never
// litters temp files next to their outputs.
func AbortPendingWrites() int { return store.AbortPending() }

// EvaluateStream recomputes quality metrics for an assignment over an
// ordered edge source (e.g. PartitionResult.Stream).
func EvaluateStream(src StreamSource, assign []int32, k int) (*Quality, error) {
	return metrics.Evaluate(src, assign, k)
}

// Distributed engine (the PowerGraph substitute).
type (
	// Placement lays a partitioning onto k logical nodes.
	Placement = engine.Placement
	// CostModel converts counted work into simulated time.
	CostModel = engine.CostModel
	// RunStats aggregates messages, bytes and simulated makespan.
	RunStats = engine.RunStats
	// PageRankConfig controls the distributed PageRank run.
	PageRankConfig = engine.PageRankConfig
)

// NewPlacement lays out a finished partitioning onto logical nodes.
func NewPlacement(res *PartitionResult) (*Placement, error) { return engine.NewPlacement(res) }

// PageRank runs distributed PageRank over the placement. Its per-node
// phases run concurrently; ranks are bit-identical at any GOMAXPROCS.
func PageRank(pl *Placement, cfg PageRankConfig) ([]float64, RunStats, error) {
	return engine.PageRank(pl, cfg)
}

// LabelPropagation runs distributed plurality label propagation.
func LabelPropagation(pl *Placement, maxIters int, cost CostModel) ([]uint32, RunStats) {
	return engine.LabelPropagation(pl, maxIters, cost)
}

// ReferenceLabelPropagation is the single-machine reference implementation.
func ReferenceLabelPropagation(g *Graph, maxIters int) []uint32 {
	return engine.ReferenceLabelPropagation(g, maxIters)
}

// ReferencePageRank is the single-machine reference implementation.
func ReferencePageRank(g *Graph, damping float64, iters int) []float64 {
	return engine.ReferencePageRank(g, damping, iters)
}

// ReferenceComponents is the single-machine reference implementation.
func ReferenceComponents(g *Graph) []uint32 { return engine.ReferenceComponents(g) }

// Experiments (the paper's tables and figures).
type (
	// ExperimentConfig controls experiment scale and scope.
	ExperimentConfig = bench.Config
	// ExperimentTable is one regenerated table/figure panel.
	ExperimentTable = bench.Table
	// Dataset is a synthetic stand-in for one of the paper's graphs.
	Dataset = bench.Dataset
	// SuiteConfig describes a benchmark grid (algorithm x dataset x k x seed).
	SuiteConfig = bench.SuiteConfig
	// Report is a machine-readable suite result (BENCH_<experiment>.json).
	Report = bench.Report
	// DiffOptions set the regression thresholds for DiffReports.
	DiffOptions = bench.DiffOptions
	// DiffResult classifies per-cell metric changes between two Reports.
	DiffResult = bench.DiffResult
)

// Datasets returns the five evaluation graphs (Table III stand-ins).
func Datasets() []Dataset { return bench.Datasets() }

// RunExperiment regenerates one paper artefact ("table1", "3".."11").
func RunExperiment(name string, cfg ExperimentConfig) ([]ExperimentTable, error) {
	return bench.Run(name, cfg)
}

// ExperimentNames lists the experiments RunExperiment accepts.
func ExperimentNames() []string { return bench.ExperimentNames() }

// RunSuiteParallel executes the algorithm x dataset x k x seed grid on a
// worker pool, computing each stream order at most once per graph.
func RunSuiteParallel(cfg SuiteConfig) (*Report, error) { return bench.RunSuiteParallel(cfg) }

// LoadReport reads a BENCH_*.json report written by Report.WriteFile.
func LoadReport(path string) (*Report, error) { return bench.LoadReport(path) }

// DiffReports compares a current report against a baseline, flagging
// quality and runtime regressions beyond the configured tolerances.
func DiffReports(baseline, current *Report, opts DiffOptions) *DiffResult {
	return bench.Diff(baseline, current, opts)
}

// Placement service: save a finished partitioning and serve
// vertex->partition, replica-set and edge-routing lookups online
// (cmd/partsrv is the daemon around these pieces).
type (
	// SavedResult is the serializable core of a finished partitioning:
	// replica table + per-partition sizes, everything a lookup service
	// needs, without the O(|E|) assignment.
	SavedResult = store.Result
	// ServeSnapshot is one immutable epoch of serving state; any number of
	// goroutines may query it concurrently.
	ServeSnapshot = serve.Snapshot
	// ServeBuilder accumulates a streamed partitioning into SavedResult
	// form (chain Observe onto an Emit); with the run's result in hand,
	// SavedResultFromRun needs no builder.
	ServeBuilder = serve.Builder
	// ServeServer swaps snapshots behind an epoch pointer with zero
	// downtime and serves the HTTP/JSON query API.
	ServeServer = serve.Server
	// ServeStats is the /v1/stats response shape.
	ServeStats = serve.Stats
	// ServeRetryPolicy tunes the automatic reload retry a ServeServer runs
	// after a failed reload (capped exponential backoff with jitter) and
	// the consecutive-failure threshold behind /v1/readyz.
	ServeRetryPolicy = serve.RetryPolicy
)

// WriteSavedResult encodes a finished partitioning to w (.cpr file).
func WriteSavedResult(w io.Writer, r *SavedResult) error { return store.WriteResult(w, r) }

// ReadSavedResult decodes a result written by WriteSavedResult, rejecting
// truncated files, forged headers and inconsistent bodies.
func ReadSavedResult(r io.Reader) (*SavedResult, error) { return store.ReadResult(r) }

// SavedResultFromRun packages a finished run - in-memory or out-of-core -
// into saveable form: the replica table and partition sizes the run's own
// quality accounting sealed, handed over without a copy or a replay.
func SavedResultFromRun(res *PartitionResult) (*SavedResult, error) { return serve.FromRun(res) }

// NewServeBuilder returns a builder for a stream over numVertices vertices
// and k partitions.
func NewServeBuilder(numVertices, k int) (*ServeBuilder, error) {
	return serve.NewBuilder(numVertices, k)
}

// NewServeSnapshot freezes a saved result into serving form.
func NewServeSnapshot(r *SavedResult) (*ServeSnapshot, error) {
	return serve.NewSnapshot(r, serve.Options{})
}

// NewServeServer returns a server with initial installed as epoch 1.
func NewServeServer(initial *ServeSnapshot) *ServeServer { return serve.NewServer(initial) }

// ServeStatsOf summarises a snapshot.
func ServeStatsOf(snap *ServeSnapshot) ServeStats { return serve.StatsOf(snap) }
