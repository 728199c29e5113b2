package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Series accumulates rows for one experiment and renders them as an
// aligned table — the harness's table-row printer.
type Series struct {
	Name    string
	Columns []string
	rows    [][]string
}

// NewSeries starts a table with the given column headers.
func NewSeries(name string, columns ...string) *Series {
	return &Series{Name: name, Columns: columns}
}

// Add appends a row (values are formatted with %v).
func (t *Series) Add(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case time.Duration:
			row[i] = x.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the accumulated rows.
func (t *Series) Rows() [][]string { return t.rows }

// String renders the table with aligned columns.
func (t *Series) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Name)
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteString("\n")
	for i := range t.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteString("\n")
	for _, r := range t.rows {
		for i, cell := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", w, cell)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
