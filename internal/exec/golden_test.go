package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// The golden digests pin every lane of a compiled row, independently of
// how the row is evaluated: the SHA-256 of every column's bits drawn
// through ColumnEval (at three points, over sample ids that straddle
// the draw table's bound, at block sizes 1, 7, 256 and 1000) and of
// every result SweepColumns returns (reuse and validation on, at one
// worker and two). Each script is compiled against the stock models and
// again with DrawBox hidden and with PointBox hidden, and all three must
// give the recorded digests: the draw table, the per-sample generator
// path and the unbound Eval path draw the same samples.

// laneOperatorsSource applies every operator and builtin to values that
// vary per sample.
const laneOperatorsSource = `
DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 6;
SELECT DemandModel(@w, 12) AS d, CapacityModel(@w, 8, 30) AS c,
       d + c * 2 - d / c AS a, ABS(d - c) AS b, MINV(d, c) AS lo, MAXV(d, @w) AS hi,
       CASE WHEN d < c THEN 1 WHEN d = c THEN 2 WHEN NOT (d <= 50) THEN d ELSE -c END AS e,
       (d > 40) AND (c >= 60) AS f, (d <> c) OR (@w < 10) AS g`

// goldenHash accumulates float and int bits into a SHA-256.
type goldenHash struct{ h hash.Hash }

func newGoldenHash() goldenHash { return goldenHash{sha256.New()} }

func (g goldenHash) int(v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	g.h.Write(buf[:])
}

func (g goldenHash) floats(vs ...float64) {
	for _, v := range vs {
		g.int(int(math.Float64bits(v)))
	}
}

func (g goldenHash) sum() string { return hex.EncodeToString(g.h.Sum(nil)) }

// goldenIDs are 400 scattered ids below the draw table's bound top and
// ids on both sides of it, in no order: drawColumns hands each block
// to ColumnEval ascending.
func goldenIDs(top int) []int {
	return append(sampleIDs(400), top-2, top+1, top-1, top, 2*top+5)
}

// columnDigest hashes every column of s drawn through ColumnEval at
// three points of its space over ids in blocks of bs.
func columnDigest(t *testing.T, s *Scenario, ids []int, bs int) string {
	g := newGoldenHash()
	n := s.Space.Size()
	for _, i := range []int{0, n / 2, n - 1} {
		p := s.Space.Values(i, nil)
		for _, col := range s.Columns {
			ev, err := s.ColumnEval(col)
			if err != nil {
				t.Fatal(err)
			}
			g.floats(drawBlocks(ev, p, 0x5161, ids, bs)...)
		}
	}
	return g.sum()
}

// sweepDigest hashes every result of a joint sweep of all of s's
// columns over up to 40 points of its space, and the sweep's stats.
func sweepDigest(t *testing.T, s *Scenario, workers int) string {
	opts := mc.Options{
		Samples: 300, FingerprintLen: 10, MasterSeed: 0x5161,
		Reuse: true, Index: mc.IndexNormalization, Workers: workers,
		ValidationSamples: 16,
	}
	cs, err := s.SweepColumns(s.Columns, opts)
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]float64
	n := s.Space.Size()
	for i := 0; i < n; i += max(1, n/40) {
		batch = append(batch, s.Space.Values(i, nil))
	}
	res, err := streamBatch(cs, batch)
	if err != nil {
		t.Fatal(err)
	}
	g := newGoldenHash()
	for _, col := range res {
		for _, pr := range col {
			sm := pr.Summary
			g.int(sm.N)
			g.floats(sm.Mean, sm.StdDev, sm.Min, sm.Max, pr.Mapping.Alpha, pr.Mapping.Beta)
			g.int(pr.BasisID)
			if pr.Reused {
				g.int(1)
			}
		}
	}
	st := cs.Stats()
	g.int(st.Points)
	g.int(st.Reused)
	g.int(st.Store.Bases)
	return g.sum()
}

// goldenRegistries returns the stock registry of boxes and the ones
// with DrawBox and with PointBox hidden.
func goldenRegistries(boxes ...blackbox.Box) map[string]*blackbox.Registry {
	stock, hidden := pointBoxRegistries(boxes...)
	return map[string]*blackbox.Registry{"stock": stock, "draws hidden": drawHiddenRegistry(boxes...), "unbound": hidden}
}

func TestGoldenRows(t *testing.T) {
	users, err := os.ReadFile("../../perfbench/scripts/graph_users.jsq")
	if err != nil {
		t.Fatal(err)
	}
	fig1Models := []blackbox.Box{blackbox.NewDemand(), blackbox.NewCapacity()}
	for _, tc := range []struct {
		name, src      string
		models         []blackbox.Box
		columns, sweep string
	}{
		{"fig1", figure1Source, fig1Models,
			"3f1278fdac5a84026d8d1d8aafe3e71aeb121a7a994b51de6efa15d44f33739e",
			"73f3fcf7e3932812641c38ff37e6db7139f1b2ab332e7b6b515c7cb6f44daf33"},
		{"seed-only arms and builtins", seedOnlySources[1].src, fig1Models,
			"d27e662487e06378a3ad641882defcc7184f3bec296108f4e15376f0931e7596",
			"63a224c85e79bf9e56de58244c0b591ab99b1e2a469bbbcea810b96d26389980"},
		{"bound graph_users", boundSources[1].src, boundModels(),
			"c3609126b724d28e9b81b7b91d28b35caf47d0373f150adfac38d32050e77987",
			"86fe92095763afb48b8840bd4fd0191a239c8b5c753ce3889ff0548f4ab14713"},
		{"bound case arms", boundSources[2].src, boundModels(),
			"ba6b162c2dee400525497eb79c5415e791ea5bea3b4254206942268e0972dc98",
			"772adc03121f55ae772ac8d07cbf339877c27b2e46456bc30d205507f564cd93"},
		{"bound arithmetic", boundSources[3].src, boundModels(),
			"db883f2a19d429118137eaf5825ef97042013792de3fafb99948fc51dcd86b2c",
			"bd61e60fea23618070ca734acf5e1de369ffb940d85620ad9a7bd213853d0e60"},
		{"graph_users.jsq", string(users), []blackbox.Box{blackbox.NewDemand(), blackbox.NewUserSelection(200, 0xD5)},
			"7dbd72989fe31795ede02bc00508ca49ef3790fc8f4ec149bdbfc742cdd6cbb0",
			"162ee374394411a6c24744e734eae93f0b7c68a7060aaee621f20beb5bcc7627"},
		{"subquery", subquerySource, fig1Models,
			"fd65a3e632d595e555022cad5840df493fc0a0b46ebe7f856b5d26e7afe541d5",
			"c83544db957323dee6c8756926a755a4b7296e577fa526b8fced0a5dcccf18a8"},
		{"operators", operatorsSource, nil,
			"06570b45a0bb55dd14f09ea5e9628087766ef61a86f97480912436ec75b4fe5c",
			"642ca08185571ac08c3259e91aabc4d086ee6f9cd194c969759393c8b7b6eec7"},
		{"lane operators", laneOperatorsSource, fig1Models,
			"c1e1cc7f4cb8a5c53a5161049427236653cb5d3df3b3a084504a3a06ba7471a1",
			"b5a5908e4fa9700094376cf1f1b81e33b34ae559b47cfc3ca5a099b0db0de944"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			script, err := sqlparse.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			regs := goldenRegistries(tc.models...)
			stock, err := CompileScenario(script, regs["stock"])
			if err != nil {
				t.Fatal(err)
			}
			top := 1 << 17
			if stock.table != nil {
				top = stock.table.Bound()
			}
			ids := goldenIDs(top)
			for name, reg := range regs {
				compile := func() *Scenario {
					s, err := CompileScenario(script, reg)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				// A fresh Scenario per block size: each starts from an
				// empty draw table.
				for _, bs := range []int{1, 7, 256, 1000} {
					if got := columnDigest(t, compile(), ids, bs); got != tc.columns {
						t.Errorf("%s, block size %d: ColumnEval digest %s, want %s", name, bs, got, tc.columns)
					}
				}
				s := compile()
				for _, workers := range []int{1, 2} {
					if got := sweepDigest(t, s, workers); got != tc.sweep {
						t.Errorf("%s, workers %d: SweepColumns digest %s, want %s", name, workers, got, tc.sweep)
					}
				}
			}
		})
	}
}

// TestGoldenChain pins Fig. 5's chain, which evaluates its row through
// FillRow one sample at a time with the caller's generator: the states
// of 52 steps under 5 seeds, with PointBox shown and hidden.
func TestGoldenChain(t *testing.T) {
	const want = "62620e4dfa55d8fb3e4fc052e12fa52142354233403a4db8e434241d3b8752e2"
	script, err := sqlparse.Parse(figure5Source)
	if err != nil {
		t.Fatal(err)
	}
	for name, reg := range goldenRegistries(blackbox.NewDemand(), releaseWeekModel()) {
		s, err := CompileScenario(script, reg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewScenarioChain(s, "demand", param.Point{})
		if err != nil {
			t.Fatal(err)
		}
		g := newGoldenHash()
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed)
			st := c.Initial()
			for step := 1; step <= 52; step++ {
				st = c.Step(step, st, r)
				g.floats(st...)
			}
		}
		if got := g.sum(); got != want {
			t.Errorf("%s: chain digest %s, want %s", name, got, want)
		}
	}
}
