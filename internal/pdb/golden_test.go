package pdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"jigsaw/internal/blackbox"
)

// The golden answers pin RunDistribution's bits for three paper-scale
// plans (1000 worlds) at the block sizes production uses. The oracle
// tests compare the executor with a reference that shares the ordered
// merge, so a change to how block moments combine would move both
// sides alike; these recorded digests catch that. Every block feeds
// every cell here at least 16 values, so each block takes AddBlock's
// batched reduction (see WorldsOptions.blockWorlds for smaller feeds).

// goldenDigest hashes every cell's (N, mean, σ, min, max) bits and the
// key rows of d.
func goldenDigest(d *Distribution) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(d.NumRows()))
	for _, row := range d.Cells {
		for _, s := range row {
			put(uint64(s.N))
			for _, f := range []float64{s.Mean, s.StdDev, s.Min, s.Max} {
				put(math.Float64bits(f))
			}
		}
	}
	put(uint64(len(d.KeyRows)))
	for _, row := range d.KeyRows {
		put(uint64(len(row)))
		for _, v := range row {
			s, _ := v.Text()
			fmt.Fprintf(h, "%d:%q;", v.Kind(), s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenUsersDB holds 200 generated users with a string name column
// and the UserUsage model.
func goldenUsersDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.Boxes.MustRegister(blackbox.UserUsage{})
	tbl := MustNewTable("name", "join_week", "base", "growth", "vol")
	for i, u := range blackbox.GenerateUsers(200, 29) {
		tbl.MustAppend(Row{Str(fmt.Sprintf("u%03d", i)), Float(u.JoinWeek), Float(u.BaseCores), Float(u.GrowthRate), Float(u.Volatility)})
	}
	if err := db.CreateTable("users", tbl); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGoldenDistributions(t *testing.T) {
	usage := "UserUsage(@week, join_week, base, growth, vol)"

	// Fig. 1's Values query.
	fig1 := loweredPlan(t, columnarDB(t), ValuesPlan{},
		[]namedExpr{
			{"demand", "DemandModel(@current_week, @feature_release)"},
			{"capacity", "CapacityModel(@current_week, @purchase1, @purchase2)"},
			{"overload", "CASE WHEN capacity < demand THEN 1 ELSE 0 END"},
		},
		"", []string{"demand", "capacity", "overload"})

	// SELECT name, join_week, UserUsage(...) AS usage FROM users
	//   WHERE join_week < @week
	db := goldenUsersDB(t)
	scan, _ := db.Scan("users")
	users := loweredPlan(t, db, scan,
		[]namedExpr{{"usage", usage}},
		"join_week < @week", []string{"name", "join_week", "usage"})

	// SELECT SUM(usage), SUM(1) FROM users WHERE usage > base: the
	// WHERE keeps each row in the worlds whose draw clears its base.
	ext, err := NewExtendPlan(scan, []NamedBound{{Name: "usage", Expr: mustBind(t, usage, scan.Schema(), db.Boxes)}})
	if err != nil {
		t.Fatal(err)
	}
	sel := &SelectPlan{Child: ext, Pred: mustBind(t, "usage > base", ext.Schema(), db.Boxes), Desc: "usage > base"}
	varying, err := NewAggregatePlan(sel, []AggSpec{
		{Arg: mustBind(t, "usage", sel.Schema(), db.Boxes), Name: "total"},
		{Arg: mustBind(t, "1", sel.Schema(), db.Boxes), Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		plan   Plan
		params map[string]float64
		want   map[int]string // by blockWorlds
	}{
		{"fig1", fig1, map[string]float64{"current_week": 30, "purchase1": 4, "purchase2": 12, "feature_release": 36}, map[int]string{
			64:  "f466c8b28a1170b1bcc070e045cd58b068f88217151c4a4778034ae98f53eeba",
			256: "8f340d4acdcc2f231a94562aa9ec4396f88b408cc468090db5bb9b2e06675059",
		}},
		{"users", users, map[string]float64{"week": 40}, map[int]string{
			64:  "182b363824f3c4ad47effbde3556dd1a4e208ec7892e26a564d2ab4ae9d47579",
			256: "9ba2c585c672ebd1695d098075eff142e3c85297e9866c2ad5a158f0e68ab272",
		}},
		{"varying_where", varying, map[string]float64{"week": 40}, map[int]string{
			64:  "664cfe813cb86923c241236a9ac39071ef8bcb7aad1ee06d35c3e3f47fde2a31",
			256: "90175d303324155792b2f979f440f880cd94c1ab198b1ba5f71b58c28138e686",
		}},
	} {
		for _, bw := range []int{64, 256} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/bw=%d/workers=%d", tc.name, bw, workers), func(t *testing.T) {
					d, err := RunDistribution(tc.plan, tc.params, WorldsOptions{Worlds: 1000, MasterSeed: 0x60d, blockWorlds: bw, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if got := goldenDigest(d); got != tc.want[bw] {
						t.Errorf("digest %s, want %s", got, tc.want[bw])
					}
				})
			}
		}
	}
}
