package exec

import (
	"errors"
	"fmt"

	"jigsaw/internal/pdb"
	"jigsaw/internal/sqlparse"
)

// BuildPDBPlan lowers a SELECT statement onto the PDB substrate —
// the "wrapper" execution path of the Fig. 7 comparison. Unlike the
// lightweight compiler it supports FROM over stored tables and WHERE
// predicates, at the cost of running a general relational plan over
// every world.
func BuildPDBPlan(stmt *sqlparse.SelectStmt, db *pdb.DB) (pdb.Plan, error) {
	if stmt == nil {
		return nil, errors.New("exec: nil SELECT")
	}
	var base pdb.Plan
	switch {
	case stmt.From == nil:
		base = pdb.ValuesPlan{}
	case stmt.From.Subquery != nil:
		sub, err := BuildPDBPlan(stmt.From.Subquery, db)
		if err != nil {
			return nil, err
		}
		base = sub
	default:
		scan, err := db.Scan(stmt.From.Table)
		if err != nil {
			return nil, err
		}
		base = scan
	}

	// Items extend the base schema left to right so later items can
	// reference earlier aliases (Fig. 1's overload column).
	var outputs []pdb.NamedBound
	schema := base.Schema()
	for _, item := range stmt.Items {
		name := item.Name()
		// A column of the base schema selected under its own name (bare
		// or self-aliased) is a pass-through; re-extending would collide.
		if c, ok := item.Expr.(*sqlparse.ColRef); ok && name == c.Name && schema.Has(c.Name) {
			continue
		}
		bound, err := pdb.Bind(item.Expr, schema, db.Boxes)
		if err != nil {
			return nil, fmt.Errorf("exec: column %q: %w", name, err)
		}
		outputs = append(outputs, pdb.NamedBound{Name: name, Expr: bound})
		schema = schema.Concat(pdb.Schema{{Name: name}})
	}
	plan := base
	if len(outputs) > 0 {
		ext, err := pdb.NewExtendPlan(base, outputs)
		if err != nil {
			return nil, err
		}
		plan = ext
	}

	if stmt.Where != nil {
		pred, err := pdb.Bind(stmt.Where, plan.Schema(), db.Boxes)
		if err != nil {
			return nil, fmt.Errorf("exec: WHERE: %w", err)
		}
		plan = &pdb.SelectPlan{Child: plan, Pred: pred, Desc: stmt.Where.String()}
	}

	// Project to exactly the SELECT list (dropping base columns that
	// were only referenced, keeping declared outputs in order).
	var finals []pdb.NamedBound
	for _, item := range stmt.Items {
		name := item.Name()
		bound, err := pdb.Bind(&sqlparse.ColRef{Name: name}, plan.Schema(), nil)
		if err != nil {
			return nil, fmt.Errorf("exec: projecting %q: %w", name, err)
		}
		finals = append(finals, pdb.NamedBound{Name: name, Expr: bound})
	}
	return pdb.NewProjectPlan(plan, finals)
}
