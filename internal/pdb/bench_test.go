package pdb

import "testing"

// BenchmarkScalarLanes times one steady-state block of 256 worlds:
// Scan(users) → Extend(usage = UserUsage(...)) over 200 rows, then one
// more column over the materialized usage lanes. "none" is the VG
// Extend alone, the base the other three add their column to.
func BenchmarkScalarLanes(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"none", ""},
		{"arithmetic", "usage * 2 + base"},
		{"builtin", "ABS(usage - base)"},
		{"comparison", "usage > base"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			plan, boxes := usersUsagePlan(b, 200)
			if bc.src != "" {
				ext, err := NewExtendPlan(plan, []NamedBound{{Name: "x", Expr: mustBind(b, bc.src, plan.Schema(), boxes)}})
				if err != nil {
					b.Fatal(err)
				}
				plan = ext
			}
			params := map[string]float64{"week": 40}
			ctx, fresh := &BlockCtx{}, planChunking(plan, 0).fresh
			block := func() {
				ctx.reset(0x5161, 0, 256, params, fresh)
				if _, err := plan.ExecuteBlock(ctx); err != nil {
					b.Fatal(err)
				}
			}
			block() // grow the arena: timed blocks are steady-state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block()
			}
		})
	}
}
