package interactive

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/exec"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/sqlparse"
)

// TestGoldenSession pins a session's every estimate and counter, bit
// for bit, over a fixed focus/tick script on two compiled scenario
// columns: Fig. 1's overload indicator and the graph_users script's
// usage column. The digests were recorded
// before the session's sample pools changed representation.
func TestGoldenSession(t *testing.T) {
	users, err := os.ReadFile("../../perfbench/scripts/graph_users.jsq")
	if err != nil {
		t.Fatal(err)
	}
	column := func(src, name string, models ...blackbox.Box) func(*testing.T) mc.PointEval {
		return func(t *testing.T) mc.PointEval {
			script, err := sqlparse.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			reg := blackbox.NewRegistry()
			for _, b := range models {
				reg.MustRegister(b)
			}
			scenario, err := exec.CompileScenario(script, reg)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := scenario.ColumnEval(name)
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T) mc.PointEval
		foci  []param.Point
		want  string
	}{
		{"fig1 overload", column(figure1Source, "overload", blackbox.NewDemand(), blackbox.NewCapacity()),
			[]param.Point{
				{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12},
				{"current_week": 30, "purchase1": 8, "purchase2": 16, "feature_release": 36},
				{"current_week": 31, "purchase1": 8, "purchase2": 16, "feature_release": 36},
				{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12},
			},
			"607523fca8c9d7ed4bb0e5f9672e0247d4f3120f24484fced8628797eca488e6"},
		{"graph_users usage", column(string(users), "usage", blackbox.NewDemand(), blackbox.NewUserSelection(200, 0xD5)),
			[]param.Point{
				{"current_week": 50, "feature_release": 36},
				{"current_week": 10, "feature_release": 12},
				{"current_week": 11, "feature_release": 12},
				{"current_week": 50, "feature_release": 36},
			},
			"5f55546c61a708cf343b21f4ac39144821b254bc755addfdb962903347167bfc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(tc.build(t), Options{MasterSeed: 5})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			for _, focus := range tc.foci {
				if err := s.SetFocus(focus); err != nil {
					t.Fatal(err)
				}
				for range 30 {
					task, p, err := s.Tick()
					if err != nil {
						t.Fatal(err)
					}
					word(uint64(task))
					for _, q := range []param.Point{focus, p} {
						est, _ := s.Estimate(q)
						word(uint64(est.N))
						for _, v := range []float64{est.Mean, est.StdDev, est.Min, est.Max} {
							word(math.Float64bits(v))
						}
					}
				}
			}
			st := s.Stats()
			fmt.Fprintf(h, "%+v", st)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("session digest %s, want %s (stats %+v)", got, tc.want, st)
			}
		})
	}
}
