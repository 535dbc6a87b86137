package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment artefact: a titled grid of rows that mirrors a
// table or one panel of a figure from the paper.
type Table struct {
	// ID is the experiment artefact id (e.g. "fig3a"; see DESIGN.md).
	ID string
	// Title describes the artefact (e.g. "Replication factor vs #partitions (UK)").
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the cells, already formatted.
	Rows [][]string
	// Note carries caveats (substitutions, scale) shown under the table.
	Note string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func mb(bytes int64) string {
	return fmt.Sprintf("%.2f", float64(bytes)/(1<<20))
}
