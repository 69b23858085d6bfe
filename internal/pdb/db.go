package pdb

import (
	"fmt"

	"jigsaw/internal/blackbox"
)

// DB is the database: named materialized tables plus the VG-function
// registry (§2.3: "each random table ... is represented on disk by its
// schema, together with a set of black-box functions").
type DB struct {
	tables map[string]*Table
	// Boxes resolves VG-function names for query expressions.
	Boxes *blackbox.Registry
}

// NewDB returns an empty database with an empty registry.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table), Boxes: blackbox.NewRegistry()}
}

// CreateTable registers a materialized table under a name.
func (db *DB) CreateTable(name string, t *Table) error {
	if name == "" {
		return fmt.Errorf("pdb: empty table name")
	}
	if _, dup := db.tables[name]; dup {
		return fmt.Errorf("pdb: table %q already exists", name)
	}
	if t == nil {
		return fmt.Errorf("pdb: nil table %q", name)
	}
	db.tables[name] = t
	return nil
}

// Table resolves a stored table.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("pdb: no table %q", name)
	}
	return t, nil
}

// Scan builds a scan plan over a stored table.
func (db *DB) Scan(name string) (*ScanPlan, error) {
	t, err := db.Table(name)
	if err != nil {
		return nil, err
	}
	return NewScanPlan(name, t), nil
}
