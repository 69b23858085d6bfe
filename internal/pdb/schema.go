package pdb

import (
	"fmt"
	"strings"
)

// Column names one attribute of a relation.
type Column struct {
	// Name is the column's (case-sensitive) name.
	Name string
}

// Schema is an ordered list of columns.
type Schema []Column

// IndexOf returns the position of the named column, or an error when
// absent or ambiguous is impossible here (names are unique per schema
// by construction in NewTable/Project).
func (s Schema) IndexOf(name string) (int, error) {
	for i, c := range s {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pdb: no column %q in schema (%s)", name, s)
}

// Has reports whether the named column exists.
func (s Schema) Has(name string) bool {
	_, err := s.IndexOf(name)
	return err == nil
}

// Concat appends another schema. Duplicate names are allowed;
// IndexOf resolves to the leftmost, as in SQL engines resolving
// unqualified references.
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	out = append(out, o...)
	return out
}

// String renders "a, b, c".
func (s Schema) String() string {
	names := make([]string, len(s))
	for i, c := range s {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}

// Row is one tuple; cells are positional against a Schema.
type Row []Value

// Clone returns an independent copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Table is a materialized relation.
type Table struct {
	// Schema describes the columns.
	Schema Schema
	// Rows holds the tuples.
	Rows []Row
}

// NewTable validates column-name uniqueness and returns an empty
// table.
func NewTable(cols ...string) (*Table, error) {
	seen := make(map[string]bool, len(cols))
	s := make(Schema, 0, len(cols))
	for _, c := range cols {
		if c == "" {
			return nil, fmt.Errorf("pdb: empty column name")
		}
		if seen[c] {
			return nil, fmt.Errorf("pdb: duplicate column %q", c)
		}
		seen[c] = true
		s = append(s, Column{Name: c})
	}
	return &Table{Schema: s}, nil
}

// MustNewTable is NewTable, panicking on error.
func MustNewTable(cols ...string) *Table {
	t, err := NewTable(cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Append adds a row after arity checking.
func (t *Table) Append(row Row) error {
	if len(row) != len(t.Schema) {
		return fmt.Errorf("pdb: row arity %d != schema arity %d", len(row), len(t.Schema))
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// MustAppend is Append, panicking on error.
func (t *Table) MustAppend(row Row) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Len returns the row count.
func (t *Table) Len() int { return len(t.Rows) }

// String renders a bounded preview of the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s)\n", t.Schema)
	for i, row := range t.Rows {
		if i == 20 {
			fmt.Fprintf(&b, "... %d more rows\n", len(t.Rows)-20)
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		fmt.Fprintf(&b, "%s\n", strings.Join(cells, ", "))
	}
	return b.String()
}
