package exec

import (
	"math"
	"testing"

	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/sqlparse"
)

// mustEngine builds an mc engine for tests.
func mustEngine(t testing.TB, samples int, seed uint64) *mc.Engine {
	t.Helper()
	return mc.MustNew(mc.Options{Samples: samples, MasterSeed: seed, Workers: 1})
}

// TestRunGraphFixedOutsideDomain: a fixed value need not lie in its
// parameter's domain. The sweep evaluates rows holding it: every
// plotted value equals a lone evaluation of that row.
func TestRunGraphFixedOutsideDomain(t *testing.T) {
	script, err := sqlparse.Parse(figure1Source + graphSource)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// feature_release is declared SET (12,36,44).
	fixed := param.Point{"purchase1": 8, "purchase2": 24, "feature_release": 30}
	opts := mc.Options{Samples: 100, MasterSeed: 3, Workers: 2}
	res, err := RunGraph(s, script.Graph, fixed, opts)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.ColumnEval("demand")
	if err != nil {
		t.Fatal(err)
	}
	eng := mc.MustNew(opts)
	stdSeries := res.Series[2]
	for j, week := range stdSeries.X {
		pr, _ := eng.EvaluatePoint(ev, []float64{week, 8, 24, 30})
		if math.Float64bits(pr.Summary.StdDev) != math.Float64bits(stdSeries.Y[j]) {
			t.Fatalf("week %g: graph σ %g, lone evaluation %g", week, stdSeries.Y[j], pr.Summary.StdDev)
		}
	}
}

const graphSource = `
GRAPH OVER @current_week
EXPECT overload WITH bold red,
EXPECT capacity WITH blue y2,
EXPECT_STDDEV demand WITH orange y2;
`

func TestRunGraphFigure2(t *testing.T) {
	script, err := sqlparse.Parse(figure1Source + graphSource)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	fixed := param.Point{"purchase1": 8, "purchase2": 24, "feature_release": 12}
	res, err := RunGraph(s, script.Graph, fixed,
		mc.Options{Samples: 300, Reuse: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Over != "current_week" || len(res.Series) != 3 {
		t.Fatalf("graph result = %+v", res)
	}
	for _, series := range res.Series {
		if len(series.X) != 53 || len(series.Y) != 53 {
			t.Fatalf("series %s has %d points", series.Label, len(series.X))
		}
	}
	// Capacity grows across the year (purchases come online).
	capSeries := res.Series[1]
	if capSeries.Column != "capacity" {
		t.Fatalf("series order broken: %+v", capSeries)
	}
	if capSeries.Y[52] <= capSeries.Y[0] {
		t.Fatal("capacity series not increasing")
	}
	// Demand stddev grows with week.
	stdSeries := res.Series[2]
	if stdSeries.Y[52] <= stdSeries.Y[5] {
		t.Fatal("demand stddev series not increasing")
	}
	// Fingerprint reuse must engage along the sweep.
	if res.Stats.Reused == 0 {
		t.Fatal("graph sweep never reused a basis")
	}
	if res.Stats.Points != 3*53-53 && res.Stats.Points != 3*53 {
		// three series but demand/capacity/overload are three distinct
		// columns → 3 engines × 53 points.
		t.Fatalf("points = %d", res.Stats.Points)
	}
	// The column sweep sums its engines' per-call statistics: every
	// column-point is one reuse decision, answered exactly once.
	if st := res.Stats; st.FullSimulations+st.Reused != st.Points || st.Store.Queries != st.Points {
		t.Fatalf("stats %+v: want Points == FullSimulations + Reused == Store.Queries", st)
	}
}

func TestRunGraphValidation(t *testing.T) {
	script, err := sqlparse.Parse(figure1Source + graphSource)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	opts := mc.Options{Samples: 50, Workers: 1}
	if _, err := RunGraph(s, nil, param.Point{}, opts); err == nil {
		t.Fatal("nil graph accepted")
	}
	// Missing fixed binding.
	if _, err := RunGraph(s, script.Graph, param.Point{"purchase1": 0}, opts); err == nil {
		t.Fatal("missing fixed bindings accepted")
	}
	// Unknown over parameter.
	bad := &sqlparse.GraphStmt{Over: "zzz", Series: script.Graph.Series}
	if _, err := RunGraph(s, bad, param.Point{}, opts); err == nil {
		t.Fatal("unknown over parameter accepted")
	}
	// Unknown column.
	bad2 := &sqlparse.GraphStmt{Over: "current_week",
		Series: []sqlparse.GraphSeries{{Column: "zzz"}}}
	if _, err := RunGraph(s, bad2,
		param.Point{"purchase1": 0, "purchase2": 0, "feature_release": 12}, opts); err == nil {
		t.Fatal("unknown column accepted")
	}
	// Invalid engine options are an error, not a panic.
	if _, err := RunGraph(s, script.Graph,
		param.Point{"purchase1": 0, "purchase2": 0, "feature_release": 12}, mc.Options{Workers: -1}); err == nil {
		t.Fatal("invalid engine options accepted")
	}
}
