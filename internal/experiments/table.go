// Package experiments regenerates every table and figure in the paper's
// evaluation (§4-§9). Each experiment returns a Table — named columns of
// rows — that the incbench CLI and the repository's benchmarks print
// (`go run ./cmd/incbench all`); each table's notes quote the paper's
// figure beside the measured one.
package experiments

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment identifier ("fig3a", "tab-xeon", ...).
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold cells already formatted as strings.
	Rows [][]string
	// Notes carries shape checks and paper-vs-measured commentary.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v (floats as %.4g).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV (header row first); notes become
// trailing comment lines prefixed with "#".
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.Columns)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// Experiment pairs an ID with its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
}

var registry []Experiment

// register adds an experiment to the catalog (called from init functions).
func register(id, title string, run func() *Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the catalog sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
