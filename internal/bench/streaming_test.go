package bench

import (
	"bytes"
	"testing"
)

// streamSuite is the smallest streaming-enabled grid: one algorithm cell
// plus the streaming grid on one dataset.
func streamSuite() SuiteConfig {
	return SuiteConfig{
		Algorithms:     []string{"Hashing"},
		Datasets:       []string{"UK"},
		Ks:             []int{4},
		Seeds:          []uint64{42},
		Scale:          0.02,
		Streaming:      true,
		StreamDatasets: []string{"UK"},
	}
}

// TestStreamCells pins the streaming cells' invariants: one cell per
// dataset, joining baselines under its mmap/CGR3 ID, with every
// measurement present.
func TestStreamCells(t *testing.T) {
	rep, err := RunSuite(streamSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StreamCells) != 1 {
		t.Fatalf("got %d stream cells, want 1 (one dataset)", len(rep.StreamCells))
	}
	c := rep.StreamCells[0]
	if want := "stream/UK/mmap/CGR3 k=32 seed=42"; c.ID() != want {
		t.Errorf("cell ID %q, want %q", c.ID(), want)
	}
	if c.BytesPerEdge <= 0 || c.DecodeNS <= 0 || c.PartitionNS <= 0 || c.ReplicationFactor < 1 {
		t.Errorf("%s: missing measurements: %+v", c.ID(), c)
	}

	// The cells survive a JSON round trip.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.StreamCells) != len(rep.StreamCells) || back.StreamCells[0] != rep.StreamCells[0] {
		t.Fatal("stream cells mangled by JSON round trip")
	}
}

// TestStreamCellsDiff covers the baseline gating: identical reports are
// clean, a bytes/edge growth is a regression at exact tolerance, and a
// baseline without stream cells skips the comparison instead of flagging
// phantom changes.
func TestStreamCellsDiff(t *testing.T) {
	rep, err := RunSuite(streamSuite())
	if err != nil {
		t.Fatal(err)
	}
	clean := Diff(rep, rep, DiffOptions{})
	if clean.HasRegressions() {
		t.Fatalf("self-diff regressed: %+v", clean.Regressions)
	}
	if clean.StreamSkipped != "" {
		t.Fatalf("self-diff skipped stream cells: %s", clean.StreamSkipped)
	}

	worse := *rep
	worse.StreamCells = append([]StreamCell(nil), rep.StreamCells...)
	worse.StreamCells[0].BytesPerEdge *= 1.01
	d := Diff(rep, &worse, DiffOptions{})
	found := false
	for _, r := range d.Regressions {
		if r.Metric == "bytes_per_edge" {
			found = true
		}
	}
	if !found {
		t.Fatalf("1%% bytes/edge growth not flagged: %+v", d.Regressions)
	}

	old := *rep
	old.StreamCells = nil
	d = Diff(&old, rep, DiffOptions{})
	if d.StreamSkipped == "" {
		t.Fatal("baseline without stream cells should skip the comparison")
	}
	if d.HasRegressions() {
		t.Fatalf("skip still produced regressions: %+v", d.Regressions)
	}
}
