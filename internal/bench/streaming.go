package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/stream"
)

// StreamCell is one point of the out-of-core streaming benchmark: one
// dataset encoded as CGR3 and streamed through the mmap source. It captures
// the two numbers the compression and mmap work attack - on-disk
// bytes/edge and decode throughput (lazy checksum verification included) -
// plus the wall clock of a full streaming CLUGP run (three restreaming
// passes over the file), which is where bytes-decoded-per-pass actually
// bites.
type StreamCell struct {
	Dataset string `json:"dataset"`
	K       int    `json:"k"`
	Seed    uint64 `json:"seed"`
	// Vertices and Edges describe the built graph (after scaling).
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// FileBytes is the encoded file size; BytesPerEdge = FileBytes/Edges.
	// Both are deterministic functions of the encoder, so Diff gates on
	// BytesPerEdge exactly: any growth is a compression regression.
	FileBytes    int64   `json:"file_bytes"`
	BytesPerEdge float64 `json:"bytes_per_edge"`
	// DecodeNS is one full page-cache-warm pass over the file with no
	// consumer (stream.Drain); DecodeMEdgesPerSec is the same number as
	// throughput. Hardware-dependent, compared with runtime tolerance.
	DecodeNS           int64   `json:"decode_ns"`
	DecodeMEdgesPerSec float64 `json:"decode_medges_per_sec"`
	// PartitionNS is a full out-of-core CLUGP run (three streaming passes,
	// assignment discarded as emitted).
	PartitionNS int64 `json:"partition_ns"`
	// ReplicationFactor and RelativeBalance are quality metrics to Diff:
	// the streamed bytes decode to the same edge stream on any host.
	ReplicationFactor float64 `json:"replication_factor"`
	RelativeBalance   float64 `json:"relative_balance"`
}

// ID names the cell's grid coordinates, the join key for baseline diffs.
// The "mmap/CGR3" part names the source and format, once grid axes of
// their own, so IDs keep joining baselines measured over that grid.
func (c StreamCell) ID() string {
	return fmt.Sprintf("stream/%s/mmap/CGR3 k=%d seed=%d", c.Dataset, c.K, c.Seed)
}

const streamK = 32

// defaultStreamDatasets are the clustered crawl-ordered graphs where the
// compression and restreaming story lives (one moderate, one dense).
var defaultStreamDatasets = []string{"UK", "IT"}

// runStreamCells measures one streaming cell per dataset serially (the
// cells time wall-clock, so they never run concurrently with anything).
// Graphs are encoded into a temp directory that is removed before
// returning.
func runStreamCells(cfg SuiteConfig) ([]StreamCell, error) {
	datasets := cfg.StreamDatasets
	if len(datasets) == 0 {
		datasets = defaultStreamDatasets
	}
	seed := cfg.Seeds[0]
	dir, err := os.MkdirTemp("", "bench-stream-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var cells []StreamCell
	for _, name := range datasets {
		ds, err := DatasetByName(name)
		if err != nil {
			return nil, fmt.Errorf("bench: stream cells: %w", err)
		}
		g := ds.Build(cfg.Scale)
		suiteLogf(cfg, "stream: built %s (%d vertices, %d edges)", name, g.NumVertices, g.NumEdges())
		path := filepath.Join(dir, name+".cgr")
		if err := writeEncoded(path, g); err != nil {
			return nil, err
		}
		cell, err := runStreamCell(name, path, g, seed)
		if err != nil {
			return nil, fmt.Errorf("bench: stream cell %s: %w", name, err)
		}
		cells = append(cells, cell)
		suiteLogf(cfg, "  stream %-4s  %.2f B/edge  decode %.1f Medges/s  clugp %v",
			name, cell.BytesPerEdge, cell.DecodeMEdgesPerSec,
			time.Duration(cell.PartitionNS).Round(time.Millisecond))
	}
	return cells, nil
}

// writeEncoded writes g to path as CGR3.
func writeEncoded(path string, g *graph.Graph) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.Write(w, g); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func runStreamCell(dataset, path string, g *graph.Graph, seed uint64) (StreamCell, error) {
	src, err := store.OpenMmap(path)
	if err != nil {
		return StreamCell{}, err
	}
	defer src.Close()

	// One warm-up pass so the timed pass measures decode over a warm page
	// cache (the multi-pass regime the mmap source is built for), then one
	// timed drain.
	if _, err := stream.Drain(src); err != nil {
		return StreamCell{}, err
	}
	start := time.Now()
	n, err := stream.Drain(src)
	if err != nil {
		return StreamCell{}, err
	}
	decodeNS := time.Since(start).Nanoseconds()

	p, err := partition.New("CLUGP", seed)
	if err != nil {
		return StreamCell{}, err
	}
	start = time.Now()
	res, err := partition.RunOutOfCore(p, src, streamK, nil)
	if err != nil {
		return StreamCell{}, err
	}
	partitionNS := time.Since(start).Nanoseconds()

	cell := StreamCell{
		Dataset: dataset, K: streamK, Seed: seed,
		Vertices: g.NumVertices, Edges: g.NumEdges(),
		FileBytes:         src.SizeBytes(),
		DecodeNS:          decodeNS,
		PartitionNS:       partitionNS,
		ReplicationFactor: res.Quality.ReplicationFactor,
		RelativeBalance:   res.Quality.RelativeBalance,
	}
	if n > 0 {
		cell.BytesPerEdge = float64(cell.FileBytes) / float64(n)
		cell.DecodeMEdgesPerSec = float64(n) / 1e6 / (float64(decodeNS) / 1e9)
	}
	return cell, nil
}
