package bench

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// smallSuite is a grid small enough for tests but covering two datasets,
// every algorithm family's order preference, and two ks.
func smallSuite() SuiteConfig {
	return SuiteConfig{
		Algorithms: []string{"Hashing", "HDRF", "CLUGP"},
		Datasets:   []string{"UK", "Twitter"},
		Ks:         []int{4, 16},
		Seeds:      []uint64{42, 43},
		Scale:      0.02,
	}
}

// stripRuntimes zeroes the fields that legitimately vary with run
// conditions - wall times always, allocation deltas because only serial
// runs record them - so the rest of the report can be compared exactly.
func stripRuntimes(r *Report) *Report {
	c := *r
	c.Workers = 0
	c.WallTimeNS = 0
	c.Cells = append([]Cell(nil), r.Cells...)
	for i := range c.Cells {
		c.Cells[i].RuntimeNS = 0
		c.Cells[i].Allocs = 0
		c.Cells[i].AllocBytes = 0
	}
	return &c
}

// TestSuiteParallelMatchesSerial is the tentpole invariant: the parallel
// runner must produce bit-identical quality metrics, in identical order,
// to the serial run.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	cfg := smallSuite()
	serial, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := RunSuiteParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Workers != 1 {
		t.Errorf("RunSuite.Workers = %d, want 1", serial.Workers)
	}
	if parallel.Workers != 4 {
		t.Errorf("RunSuiteParallel.Workers = %d, want 4", parallel.Workers)
	}
	if !reflect.DeepEqual(stripRuntimes(serial), stripRuntimes(parallel)) {
		t.Fatal("parallel suite differs from serial beyond runtime fields")
	}
	wantCells := len(cfg.Algorithms) * len(cfg.Datasets) * len(cfg.Ks) * len(cfg.Seeds)
	if len(parallel.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(parallel.Cells), wantCells)
	}
}

// TestSuiteStreamOrdersBuiltOnce checks the shared cache holds the suite to
// at most one ordering per (graph, order, seed) however many cells run.
func TestSuiteStreamOrdersBuiltOnce(t *testing.T) {
	cfg := smallSuite()
	cfg.Workers = 4
	report, err := RunSuiteParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hashing and HDRF stream in random order (keyed per seed), CLUGP in
	// BFS (seed-independent): per graph that is 2 random + 1 bfs = 3.
	want := int64(len(cfg.Datasets)) * 3
	if report.StreamOrdersBuilt != want {
		t.Errorf("StreamOrdersBuilt = %d, want %d (each order at most once per graph)", report.StreamOrdersBuilt, want)
	}
}

// TestReportJSONRoundTrip checks WriteJSON/ReadReport and the file variants
// reproduce the report exactly.
func TestReportJSONRoundTrip(t *testing.T) {
	cfg := smallSuite()
	cfg.Ks = []int{4}
	cfg.Seeds = []uint64{42}
	report, err := RunSuiteParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report, back) {
		t.Error("report changed across WriteJSON/ReadReport")
	}

	path := filepath.Join(t.TempDir(), report.Filename())
	if err := report.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err = LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report, back) {
		t.Error("report changed across WriteFile/LoadReport")
	}
	if report.Filename() != "BENCH_suite.json" {
		t.Errorf("Filename() = %q, want BENCH_suite.json", report.Filename())
	}
}

// TestDiffDetectsInjectedRegression corrupts one cell of a copied report
// and checks Diff flags exactly that metric.
func TestDiffDetectsInjectedRegression(t *testing.T) {
	baseline := &Report{
		Experiment: "suite",
		Cells: []Cell{
			{Algorithm: "CLUGP", Dataset: "UK", K: 4, Seed: 42, ReplicationFactor: 2.0, RelativeBalance: 1.0, RuntimeNS: 100e6},
			{Algorithm: "HDRF", Dataset: "UK", K: 4, Seed: 42, ReplicationFactor: 2.5, RelativeBalance: 1.0, RuntimeNS: 200e6},
		},
	}
	current := &Report{Experiment: "suite", Cells: append([]Cell(nil), baseline.Cells...)}

	// Identical reports: clean diff.
	d := Diff(baseline, current, DiffOptions{})
	if d.HasRegressions() || len(d.Improvements) != 0 || d.Matched != 2 {
		t.Fatalf("identical reports: regressions=%d improvements=%d matched=%d", len(d.Regressions), len(d.Improvements), d.Matched)
	}

	// Inject a quality regression (RF up 10%) on CLUGP.
	current.Cells[0].ReplicationFactor = 2.2
	d = Diff(baseline, current, DiffOptions{})
	if len(d.Regressions) != 1 {
		t.Fatalf("injected RF regression: got %d regressions, want 1: %+v", len(d.Regressions), d.Regressions)
	}
	r := d.Regressions[0]
	if r.Metric != "replication_factor" || r.Cell != current.Cells[0].ID() {
		t.Errorf("flagged %s on %s, want replication_factor on %s", r.Metric, r.Cell, current.Cells[0].ID())
	}

	// A big runtime slowdown is flagged; one under the absolute floor is not.
	current.Cells[0].ReplicationFactor = 2.0
	current.Cells[0].RuntimeNS = 400e6 // 100ms -> 400ms: over floor and tolerance
	current.Cells[1].RuntimeNS = 230e6 // 200ms -> 230ms: under both
	d = Diff(baseline, current, DiffOptions{})
	if len(d.Regressions) != 1 || d.Regressions[0].Metric != "runtime" {
		t.Fatalf("runtime regression: got %+v, want one runtime flag", d.Regressions)
	}

	// Quality improvements land on the other side of the ledger.
	current.Cells[0].RuntimeNS = 100e6
	current.Cells[0].ReplicationFactor = 1.5
	d = Diff(baseline, current, DiffOptions{})
	if d.HasRegressions() || len(d.Improvements) != 1 {
		t.Fatalf("improvement: regressions=%+v improvements=%+v", d.Regressions, d.Improvements)
	}

	// Grid changes surface as unmatched cells, not regressions.
	current.Cells = current.Cells[:1]
	d = Diff(baseline, current, DiffOptions{})
	if len(d.OnlyBaseline) != 1 || d.Matched != 1 {
		t.Errorf("dropped cell: only_baseline=%v matched=%d", d.OnlyBaseline, d.Matched)
	}
}

// TestDiffSkipsRuntimeAcrossEnvironments checks runtime is not compared
// between reports measured under different worker counts or GOMAXPROCS -
// only quality - while identical environments still compare runtime.
func TestDiffSkipsRuntimeAcrossEnvironments(t *testing.T) {
	cell := Cell{Algorithm: "CLUGP", Dataset: "UK", K: 4, Seed: 42, ReplicationFactor: 2.0, RelativeBalance: 1.0, RuntimeNS: 100e6}
	baseline := &Report{Workers: 1, GOMAXPROCS: 8, Cells: []Cell{cell}}
	slow := cell
	slow.RuntimeNS = 400e6
	current := &Report{Workers: 4, GOMAXPROCS: 8, Cells: []Cell{slow}}

	d := Diff(baseline, current, DiffOptions{})
	if d.RuntimeSkipped == "" {
		t.Error("workers differ: want RuntimeSkipped set")
	}
	if d.HasRegressions() {
		t.Errorf("workers differ: runtime must not be compared, got %+v", d.Regressions)
	}

	// Quality is still compared even when runtime is skipped.
	bad := slow
	bad.ReplicationFactor = 3.0
	current.Cells = []Cell{bad}
	d = Diff(baseline, current, DiffOptions{})
	if len(d.Regressions) != 1 || d.Regressions[0].Metric != "replication_factor" {
		t.Errorf("quality under skipped runtime: got %+v", d.Regressions)
	}

	// Same environment: the runtime regression is flagged.
	current = &Report{Workers: 1, GOMAXPROCS: 8, Cells: []Cell{slow}}
	d = Diff(baseline, current, DiffOptions{})
	if len(d.Regressions) != 1 || d.Regressions[0].Metric != "runtime" {
		t.Errorf("same environment: got %+v, want runtime flag", d.Regressions)
	}
}

// TestDiffMarksDifferentGraphsIncomparable checks cells whose underlying
// graphs differ (a -scale change) are surfaced as incomparable instead of
// producing false quality regressions.
func TestDiffMarksDifferentGraphsIncomparable(t *testing.T) {
	cell := Cell{Algorithm: "CLUGP", Dataset: "UK", K: 4, Seed: 42, Vertices: 30000, Edges: 240000, ReplicationFactor: 2.0, RelativeBalance: 1.0}
	baseline := &Report{Scale: 1.0, Cells: []Cell{cell}}
	half := cell
	half.Vertices, half.Edges = 15000, 118000
	half.ReplicationFactor = 2.5 // different graph, naturally different RF
	current := &Report{Scale: 0.5, Cells: []Cell{half}}

	d := Diff(baseline, current, DiffOptions{})
	if d.HasRegressions() {
		t.Errorf("different graphs must not classify as regressions: %+v", d.Regressions)
	}
	if len(d.Incomparable) != 1 || d.Incomparable[0] != cell.ID() {
		t.Errorf("Incomparable = %v, want [%s]", d.Incomparable, cell.ID())
	}
}

// TestSuiteValidatesGrid checks unknown names fail before any work runs.
func TestSuiteValidatesGrid(t *testing.T) {
	cfg := smallSuite()
	cfg.Algorithms = []string{"NoSuchAlgo"}
	if _, err := RunSuiteParallel(cfg); err == nil {
		t.Error("unknown algorithm: want error")
	}
	cfg = smallSuite()
	cfg.Datasets = []string{"NoSuchDataset"}
	if _, err := RunSuiteParallel(cfg); err == nil {
		t.Error("unknown dataset: want error")
	}
}

// TestDiffAllocGating pins the strict allocation gate: any growth in a
// cell's alloc count is a regression when both reports are serial at the
// same GOMAXPROCS, and the comparison is skipped (never false-flagged)
// for parallel runs, mismatched GOMAXPROCS, or alloc-less baselines.
func TestDiffAllocGating(t *testing.T) {
	cell := Cell{Algorithm: "HDRF", Dataset: "UK", K: 4, Seed: 42,
		Vertices: 100, Edges: 1000, ReplicationFactor: 2, RelativeBalance: 1,
		Allocs: 100, AllocBytes: 4096}
	base := &Report{Workers: 1, GOMAXPROCS: 1, Cells: []Cell{cell}}

	// Growth beyond the absolute floor is a regression, however small in
	// relative terms.
	grew := cell
	grew.Allocs = 108
	d := Diff(base, &Report{Workers: 1, GOMAXPROCS: 1, Cells: []Cell{grew}}, DiffOptions{})
	if len(d.Regressions) != 1 || d.Regressions[0].Metric != "allocs" {
		t.Errorf("alloc growth: got %+v, want one allocs regression", d.Regressions)
	}
	// One or two stray allocations sit under the floor: runtime background
	// noise, not a regression.
	noise := cell
	noise.Allocs = 102
	d = Diff(base, &Report{Workers: 1, GOMAXPROCS: 1, Cells: []Cell{noise}}, DiffOptions{})
	if d.HasRegressions() {
		t.Errorf("sub-floor alloc jitter flagged: %+v", d.Regressions)
	}
	// Fewer bytes (beyond the floor) is an improvement, not a regression.
	shrunk := cell
	shrunk.AllocBytes = 0
	shrunk.Allocs = 50
	d = Diff(base, &Report{Workers: 1, GOMAXPROCS: 1, Cells: []Cell{shrunk}}, DiffOptions{})
	if d.HasRegressions() || len(d.Improvements) != 2 {
		t.Errorf("shrink: regressions %+v improvements %+v", d.Regressions, d.Improvements)
	}

	// Parallel run: skipped with a reason, growth not flagged.
	d = Diff(base, &Report{Workers: 4, GOMAXPROCS: 1, Cells: []Cell{grew}}, DiffOptions{})
	if d.AllocSkipped == "" || len(d.Regressions) != 0 {
		t.Errorf("parallel: AllocSkipped=%q regressions=%+v", d.AllocSkipped, d.Regressions)
	}
	// GOMAXPROCS above 1 on either side: skipped (worker pools allocate
	// scratch on scheduler-chosen workers, so counts are nondeterministic).
	d = Diff(base, &Report{Workers: 1, GOMAXPROCS: 8, Cells: []Cell{grew}}, DiffOptions{})
	if d.AllocSkipped == "" {
		t.Error("GOMAXPROCS>1 current must skip alloc comparison")
	}
	multiBase := &Report{Workers: 1, GOMAXPROCS: 8, Cells: []Cell{cell}}
	d = Diff(multiBase, &Report{Workers: 1, GOMAXPROCS: 8, Cells: []Cell{grew}}, DiffOptions{})
	if d.AllocSkipped == "" || len(d.Regressions) != 0 {
		t.Errorf("matching GOMAXPROCS=8 must still skip alloc comparison: %q %+v", d.AllocSkipped, d.Regressions)
	}
	// Baseline predating the field (all-zero allocs): skipped.
	old := cell
	old.Allocs, old.AllocBytes = 0, 0
	d = Diff(&Report{Workers: 1, GOMAXPROCS: 1, Cells: []Cell{old}},
		&Report{Workers: 1, GOMAXPROCS: 1, Cells: []Cell{grew}}, DiffOptions{})
	if d.AllocSkipped == "" || len(d.Regressions) != 0 {
		t.Errorf("alloc-less baseline: AllocSkipped=%q regressions=%+v", d.AllocSkipped, d.Regressions)
	}
}

// TestSuiteSerialRecordsAllocs: a 1-worker suite records repeatable
// allocation counts (up to the runtime's stray-allocation jitter, the same
// sub-floor band the Diff gate ignores); a parallel suite leaves them zero.
func TestSuiteSerialRecordsAllocs(t *testing.T) {
	cfg := smallSuite()
	cfg.Workers = 1
	a, err := RunSuiteParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuiteParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jitter := DiffOptions{}.withDefaults().AllocFloor
	for i := range a.Cells {
		if a.Cells[i].Allocs == 0 || a.Cells[i].AllocBytes == 0 {
			t.Fatalf("serial cell %s recorded no allocations", a.Cells[i].ID())
		}
		if d := abs64(a.Cells[i].Allocs - b.Cells[i].Allocs); d >= jitter {
			t.Fatalf("cell %s allocs not repeatable beyond runtime jitter: %d vs %d",
				a.Cells[i].ID(), a.Cells[i].Allocs, b.Cells[i].Allocs)
		}
	}
	cfg.Workers = 4
	p, err := RunSuiteParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Cells {
		if p.Cells[i].Allocs != 0 {
			t.Fatal("parallel suite must not record per-cell allocations")
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
