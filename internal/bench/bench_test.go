package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a config small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.05, Ks: []int{4, 16}, Seed: 1}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) != 5 {
		t.Fatalf("%d datasets, want 5", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
		g := d.Build(0.02)
		if g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph at small scale", d.Name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	for _, want := range []string{"UK", "Arabic", "WebBase", "IT", "Twitter"} {
		if !names[want] {
			t.Fatalf("missing dataset %s", want)
		}
	}
	if len(WebDatasets()) != 4 {
		t.Fatalf("%d web datasets, want 4", len(WebDatasets()))
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	a, _ := DatasetByName("UK")
	g1 := a.Build(0.05)
	g2 := a.Build(0.05)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("dataset build not deterministic")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatal("dataset build not deterministic")
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Note:   "a note",
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## t — demo", "a", "bb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 11 {
		t.Fatalf("%d experiments, want 10", len(names))
	}
	if names[0] != "table1" {
		t.Fatalf("first experiment %q, want table1", names[0])
	}
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// checkTables verifies structural sanity shared by every experiment: at
// least one table, consistent column counts, numeric cells parseable.
func checkTables(t *testing.T, tables []Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables produced")
	}
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" {
			t.Fatalf("table missing id/title: %+v", tb)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no rows", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Fatalf("%s: row %v has %d cells, header has %d", tb.ID, row, len(row), len(tb.Header))
			}
		}
	}
}

func TestFig3Tiny(t *testing.T) {
	tables, err := Fig3(tiny())
	checkTables(t, tables, err)
	if len(tables) != 4 {
		t.Fatalf("fig3 produced %d tables, want 4", len(tables))
	}
	// On every web dataset CLUGP (last column) must beat Hashing (column 3).
	for _, tb := range tables {
		for _, row := range tb.Rows {
			hash, err1 := strconv.ParseFloat(row[3], 64)
			clugp, err2 := strconv.ParseFloat(row[len(row)-1], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: unparseable RF cells %v", tb.ID, row)
			}
			if clugp >= hash {
				t.Fatalf("%s k=%s: CLUGP RF %v >= Hashing %v", tb.ID, row[0], clugp, hash)
			}
		}
	}
}

func TestFig4Tiny(t *testing.T) {
	tables, err := Fig4(tiny())
	checkTables(t, tables, err)
	if len(tables) != 2 {
		t.Fatalf("fig4 produced %d tables, want 2", len(tables))
	}
}

func TestFig5Tiny(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.2 // sampling needs some material
	tables, err := Fig5(cfg)
	checkTables(t, tables, err)
}

func TestFig6Tiny(t *testing.T) {
	cfg := tiny()
	cfg.Ks = []int{4, 256} // replica bitsets only widen past 64 partitions
	tables, err := Fig6(cfg)
	checkTables(t, tables, err)
	// HDRF's measured state (col 1) grows between k=4 and k=256.
	tb := tables[0]
	first, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][1], 64)
	if last <= first {
		t.Fatalf("HDRF memory did not grow with k: %v -> %v", first, last)
	}
	// Figure 6's other claims are asserted on measured state at a larger
	// vertex count in partition's TestStateBytesMonotonicInK.
}

func TestFig7Tiny(t *testing.T) {
	tables, err := Fig7(tiny())
	checkTables(t, tables, err)
	if len(tables) != 2 {
		t.Fatalf("fig7 produced %d tables, want 2", len(tables))
	}
}

func TestFig8Tiny(t *testing.T) {
	tables, err := Fig8(tiny())
	checkTables(t, tables, err)
	if len(tables) != 3 {
		t.Fatalf("fig8 produced %d tables, want 3", len(tables))
	}
	// RTT table: every algorithm's runtime must increase with RTT.
	rttTab := tables[2]
	for col := 1; col < len(rttTab.Header); col++ {
		lo, _ := strconv.ParseFloat(rttTab.Rows[0][col], 64)
		hi, _ := strconv.ParseFloat(rttTab.Rows[len(rttTab.Rows)-1][col], 64)
		if hi <= lo {
			t.Fatalf("fig8c: %s runtime did not grow with RTT (%v -> %v)", rttTab.Header[col], lo, hi)
		}
	}
}

func TestFig9Tiny(t *testing.T) {
	tables, err := Fig9(tiny())
	checkTables(t, tables, err)
	// At the largest k, CLUGP must beat both ablations.
	tb := tables[0]
	last := tb.Rows[len(tb.Rows)-1]
	full, _ := strconv.ParseFloat(last[1], 64)
	noSplit, _ := strconv.ParseFloat(last[2], 64)
	noGame, _ := strconv.ParseFloat(last[3], 64)
	if full >= noSplit || full >= noGame {
		t.Fatalf("ablation inverted at k=%s: CLUGP %v vs CLUGP-S %v vs CLUGP-G %v", last[0], full, noSplit, noGame)
	}
}

func TestFig10Tiny(t *testing.T) {
	tables, err := Fig10(tiny())
	checkTables(t, tables, err)
	if len(tables) != 2 {
		t.Fatalf("fig10 produced %d tables, want 2", len(tables))
	}
}

func TestFig11Tiny(t *testing.T) {
	tables, err := Fig11(tiny())
	checkTables(t, tables, err)
	if len(tables) != 2 {
		t.Fatalf("fig11 produced %d tables, want 2", len(tables))
	}
}

func TestSec2CTiny(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.2
	tables, err := Sec2C(cfg)
	checkTables(t, tables, err)
	tb := tables[0]
	if len(tb.Rows) != 10 {
		t.Fatalf("sec2c has %d rows, want 10 (5 algorithms x 2 datasets)", len(tb.Rows))
	}
	// On the social graph (last 5 rows), the best vertex-cut row must beat
	// the best edge-cut row on msgs/vertex - the Section II-C claim.
	bestEdge, bestVertex := 1e18, 1e18
	for _, row := range tb.Rows[5:] {
		var v float64
		if _, err := fmt.Sscanf(row[3], "%f", &v); err != nil {
			t.Fatalf("bad msgs cell %q", row[3])
		}
		if row[1] == "edge-cut" && v < bestEdge {
			bestEdge = v
		}
		if row[1] == "vertex-cut" && v < bestVertex {
			bestVertex = v
		}
	}
	if bestVertex >= bestEdge {
		t.Fatalf("vertex-cut (%v) did not beat edge-cut (%v) on the social graph", bestVertex, bestEdge)
	}
}

func TestTable1Tiny(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.25 // quality ranks need a non-degenerate graph
	tables, err := Table1(cfg)
	checkTables(t, tables, err)
	tb := tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("table1 has %d rows, want 6", len(tb.Rows))
	}
	// CLUGP must be classified High quality; Hashing Low/Low.
	for _, row := range tb.Rows {
		switch row[0] {
		case "CLUGP":
			if row[2] != "High" {
				t.Fatalf("CLUGP quality class %q, want High", row[2])
			}
		case "Hashing":
			if row[1] != "Low" || row[2] != "Low" {
				t.Fatalf("Hashing classes %q/%q, want Low/Low", row[1], row[2])
			}
		}
	}
}

// TestCellFiguresAreSuiteCells: Figures 3, 4a, 6, 7 and 9 and Table I are
// views of suite cells. RunSuite runs each figure's grid as well; the cells
// the figure ran must equal those cell for cell (runtime and allocation
// fields aside), and every number the figure prints must be the metric of
// its cell. A figure that measured outside the grid runner hands over no
// cells and fails.
func TestCellFiguresAreSuiteCells(t *testing.T) {
	cfg := tiny()
	rf := func(c Cell) string { return fmt.Sprintf("%.3f", c.ReplicationFactor) }
	runtimeMS := func(c Cell) string { return fmt.Sprintf("%.1f", float64(c.RuntimeNS)/1e6) }
	stateMB := func(c Cell) string { return fmt.Sprintf("%.2f", float64(c.StateBytes)/(1<<20)) }
	for _, tc := range []struct {
		name     string
		run      Runner
		datasets []string
		algos    []string
		ks       []int
		metric   func(Cell) string // the entry of a k x algorithm table
	}{
		{"fig3", Fig3, []string{"UK", "Arabic", "WebBase", "IT"}, algos, cfg.Ks, rf},
		{"fig4a", Fig4, []string{"Twitter"}, []string{"HDRF", "CLUGP"}, cfg.Ks, rf},
		{"fig6", Fig6, []string{"IT"}, algos, cfg.Ks, stateMB},
		{"fig7", Fig7, []string{"UK", "IT"}, algos, cfg.Ks, runtimeMS},
		{"fig9", Fig9, []string{"IT"}, []string{"CLUGP", "CLUGP-S", "CLUGP-G"}, cfg.Ks, rf},
		{"table1", Table1, []string{"UK"}, algos, []int{64}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var grids [][]Cell
			fcfg := cfg
			fcfg.onCells = func(cells []Cell) { grids = append(grids, cells) }
			tables, err := tc.run(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(grids) != 1 {
				t.Fatalf("figure ran %d grids through the grid runner, want 1", len(grids))
			}
			got := grids[0]
			report, err := RunSuite(SuiteConfig{
				Algorithms: tc.algos, Datasets: tc.datasets, Ks: tc.ks,
				Seeds: []uint64{cfg.Seed}, Scale: cfg.Scale,
			})
			if err != nil {
				t.Fatal(err)
			}
			deterministic := func(cells []Cell) []Cell {
				out := append([]Cell(nil), cells...)
				for i := range out {
					out[i].RuntimeNS, out[i].Allocs, out[i].AllocBytes = 0, 0, 0
				}
				return out
			}
			if !reflect.DeepEqual(deterministic(got), deterministic(report.Cells)) {
				t.Fatalf("figure cells differ from RunSuite's:\n got %+v\nwant %+v", got, report.Cells)
			}
			byID := map[string]Cell{}
			for _, c := range got {
				byID[c.ID()] = c
			}
			cell := func(alg, ds, k string) Cell {
				t.Helper()
				c, ok := byID[fmt.Sprintf("%s/%s k=%s seed=%d", alg, ds, k, cfg.Seed)]
				if !ok {
					t.Fatalf("no cell for %s/%s k=%s", alg, ds, k)
				}
				return c
			}
			checked := 0
			if tc.metric == nil { // Table I: one row per algorithm at k=64.
				for _, row := range tables[0].Rows {
					c := cell(row[0], "UK", "64")
					if row[3] != runtimeMS(c) || row[4] != rf(c) {
						t.Fatalf("table1 row %v, cell runtime %s RF %s", row, runtimeMS(c), rf(c))
					}
					checked += 2
				}
			} else {
				for i, ds := range tc.datasets {
					tb := tables[i]
					for _, row := range tb.Rows {
						for col, alg := range tb.Header[1:] {
							if want := tc.metric(cell(alg, ds, row[0])); row[col+1] != want {
								t.Fatalf("%s %s k=%s: entry %s, cell says %s", tb.ID, alg, row[0], row[col+1], want)
							}
							checked++
						}
					}
				}
			}
			perCell := 1
			if tc.metric == nil {
				perCell = 2
			}
			if checked != perCell*len(got) {
				t.Fatalf("checked %d entries for %d cells", checked, len(got))
			}
		})
	}
}
