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
	env := db.Env()
	for _, item := range stmt.Items {
		name := item.Name()
		// A column of the base schema selected under its own name (bare
		// or self-aliased) is a pass-through; re-extending would collide.
		if c, ok := item.Expr.(*sqlparse.ColRef); ok && name == c.Name && schema.Has(c.Name) {
			continue
		}
		bound, err := lowerExpr(item.Expr, schema, env)
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
		pred, err := lowerExpr(stmt.Where, plan.Schema(), env)
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
		bound, err := (pdb.Col{Name: name}).Bind(plan.Schema(), env)
		if err != nil {
			return nil, fmt.Errorf("exec: projecting %q: %w", name, err)
		}
		finals = append(finals, pdb.NamedBound{Name: name, Expr: bound})
	}
	return pdb.NewProjectPlan(plan, finals)
}

// lowerExpr converts a parsed expression to a bound PDB expression.
func lowerExpr(e sqlparse.Expr, schema pdb.Schema, env *pdb.Env) (pdb.BoundExpr, error) {
	pe, err := toPDBExpr(e)
	if err != nil {
		return nil, err
	}
	return pe.Bind(schema, env)
}

// toPDBExpr maps the parser AST onto the PDB expression tree.
func toPDBExpr(e sqlparse.Expr) (pdb.Expr, error) {
	switch n := e.(type) {
	case *sqlparse.NumberLit:
		return pdb.Lit{Val: pdb.Float(n.Value)}, nil
	case *sqlparse.StringLit:
		return pdb.Lit{Val: pdb.Str(n.Value)}, nil
	case *sqlparse.ColRef:
		return pdb.Col{Name: n.Name}, nil
	case *sqlparse.ParamRef:
		return pdb.Param{Name: n.Name}, nil
	case *sqlparse.Unary:
		inner, err := toPDBExpr(n.E)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			return pdb.Not{E: inner}, nil
		}
		return pdb.Neg{E: inner}, nil
	case *sqlparse.Binary:
		l, err := toPDBExpr(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := toPDBExpr(n.Right)
		if err != nil {
			return nil, err
		}
		return pdb.BinOp{Op: n.Op, Left: l, Right: r}, nil
	case *sqlparse.CaseExpr:
		return lowerCase(n)
	case *sqlparse.FuncCall:
		if n.Name == "NULL" {
			return pdb.Lit{Val: pdb.Null()}, nil
		}
		args := make([]pdb.Expr, len(n.Args))
		for i, a := range n.Args {
			pa, err := toPDBExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = pa
		}
		return pdb.Call{Name: n.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

// lowerCase desugars multi-arm CASE into nested single-arm pdb.Case.
func lowerCase(c *sqlparse.CaseExpr) (pdb.Expr, error) {
	var els pdb.Expr
	if c.Else != nil {
		var err error
		if els, err = toPDBExpr(c.Else); err != nil {
			return nil, err
		}
	}
	out := els
	for i := len(c.Whens) - 1; i >= 0; i-- {
		w, err := toPDBExpr(c.Whens[i].When)
		if err != nil {
			return nil, err
		}
		t, err := toPDBExpr(c.Whens[i].Then)
		if err != nil {
			return nil, err
		}
		out = pdb.Case{When: w, Then: t, Else: out}
	}
	return out, nil
}
