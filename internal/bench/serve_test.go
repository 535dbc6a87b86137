package bench

import (
	"bytes"
	"fmt"
	"testing"
)

// TestServeCells pins the placement-service grid's invariants: one cell per
// client count, real measurements in every cell, and - the hard
// gate - zero allocations per query in the single-client cells (a cell
// violating that fails the run itself, so reaching here means it held).
func TestServeCells(t *testing.T) {
	cfg := streamSuite()
	cfg.ServeDatasets = []string{"UK"}
	rep, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ServeCells) != 2 {
		t.Fatalf("got %d serve cells, want 2 (1/%d clients)", len(rep.ServeCells), serveMaxClients)
	}
	seen := map[string]ServeCell{}
	for _, c := range rep.ServeCells {
		seen[c.ID()] = c
		if c.Lookups <= 0 || c.LookupsPerSec <= 0 || c.P50NS < 0 || c.P99NS < c.P50NS {
			t.Errorf("%s: implausible measurements: %+v", c.ID(), c)
		}
		if c.Clients == 1 && c.AllocsPerOp != 0 {
			t.Errorf("%s: single-client allocs/op = %v, want 0", c.ID(), c.AllocsPerOp)
		}
	}
	for _, clients := range []int{1, serveMaxClients} {
		want := fmt.Sprintf("serve/UK/flat clients=%d k=%d seed=%d", clients, serveK, cfg.Seeds[0])
		if _, ok := seen[want]; !ok {
			t.Errorf("missing serve cell %s", want)
		}
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
	if len(back.ServeCells) != len(rep.ServeCells) || back.ServeCells[0] != rep.ServeCells[0] {
		t.Fatal("serve cells mangled by JSON round trip")
	}

	// Diff gating: self-diff is clean, an allocation appearing on the query
	// path is a regression at exact tolerance, a missing grid skips.
	clean := Diff(rep, rep, DiffOptions{})
	if clean.HasRegressions() {
		t.Fatalf("self-diff regressed: %+v", clean.Regressions)
	}
	if clean.ServeSkipped != "" {
		t.Fatalf("self-diff skipped serve cells: %s", clean.ServeSkipped)
	}
	worse := *rep
	worse.ServeCells = append([]ServeCell(nil), rep.ServeCells...)
	worse.ServeCells[0].AllocsPerOp += 0.5
	d := Diff(rep, &worse, DiffOptions{})
	found := false
	for _, r := range d.Regressions {
		if r.Metric == "allocs_per_op" {
			found = true
		}
	}
	if !found {
		t.Fatalf("allocs/op growth not flagged: %+v", d.Regressions)
	}
	old := *rep
	old.ServeCells = nil
	d = Diff(&old, rep, DiffOptions{})
	if d.ServeSkipped == "" {
		t.Fatal("baseline without serve cells should skip the comparison")
	}
	if d.HasRegressions() {
		t.Fatalf("skip still produced regressions: %+v", d.Regressions)
	}
}
