package blackbox

import (
	"fmt"
	"math"

	"jigsaw/internal/rng"
)

// User is one row of the synthetic per-user requirements dataset
// backing the UserSelection model. The paper's dataset is Azure
// production data; this generator preserves its relevant shape — many
// users, heavy-tailed individual demand, cohort-based arrival — per
// the substitution note in DESIGN.md.
type User struct {
	// ID is the user's row id.
	ID int
	// JoinWeek is the week the user became active.
	JoinWeek float64
	// BaseCores is the user's initial weekly core requirement.
	BaseCores float64
	// GrowthRate is the per-week multiplicative usage growth.
	GrowthRate float64
	// Volatility is the σ of the user's week-to-week log-usage noise.
	Volatility float64
}

// GenerateUsers deterministically produces an n-user dataset from the
// seed. Base requirements are heavy-tailed (Pareto), growth rates
// cluster near 1, and join weeks spread over the first year.
func GenerateUsers(n int, seed uint64) []User {
	r := rng.New(seed)
	users := make([]User, n)
	for i := range users {
		users[i] = User{
			ID:         i,
			JoinWeek:   math.Floor(r.Uniform(0, 52)),
			BaseCores:  r.Pareto(0.5, 1.8),
			GrowthRate: 1 + r.Normal(0.005, 0.002),
			Volatility: r.Uniform(0.05, 0.3),
		}
	}
	return users
}

// UserSelection simulates the per-user requirements of a set of users
// (Fig. 6: "UserSim") and returns the cluster-wide total for the
// requested week. It is the data-dependent model of the evaluation:
// cost scales with the dataset, not with model complexity, which is
// why the set-oriented PDB engine beats the lightweight engine on it
// (Fig. 7) and why it appears as "Usage" in Fig. 8.
//
// Arguments: (current_week).
type UserSelection struct {
	// Users is the backing dataset.
	Users []User
}

// NewUserSelection generates a dataset of n users from the seed.
func NewUserSelection(n int, seed uint64) *UserSelection {
	return &UserSelection{Users: GenerateUsers(n, seed)}
}

// Name implements Box.
func (*UserSelection) Name() string { return "UserSelection" }

// Arity implements Box.
func (*UserSelection) Arity() int { return 1 }

// Eval implements Box tuple-at-a-time: one pass over the dataset per
// sample, drawing each active user's weekly usage. Inactive users draw
// nothing and consume no randomness, mirroring how a per-user VG
// function would simply not be invoked for absent rows.
func (u *UserSelection) Eval(args []float64, r *rng.Rand) float64 {
	checkArity(u.Name(), u.Arity(), args)
	week := args[0]
	total := 0.0
	for i := range u.Users {
		usr := &u.Users[i]
		if mean, ok := usr.mean(week); ok {
			total += usage(mean, usr.Volatility, r)
		}
	}
	return total
}

// mean is the user's expected usage in the week — base cores grown by
// the tenure — and whether the user has joined by then.
func (usr *User) mean(week float64) (float64, bool) {
	if week < usr.JoinWeek {
		return 0, false
	}
	return usr.BaseCores * math.Pow(usr.GrowthRate, week-usr.JoinWeek), true
}

// usage draws an active user's weekly usage around its mean.
func usage(mean, vol float64, r *rng.Rand) float64 {
	return mean * r.LogNormal(0, vol)
}

// BoundLen implements PointBox: the bound state is the active-user
// count, then one (mean, volatility) pair per user.
func (u *UserSelection) BoundLen() int { return 1 + 2*len(u.Users) }

// Bind implements PointBox: the activity test and the tenure growth,
// which Eval repeats on every sample, run once for the week, and the
// state keeps only the active users, in dataset order.
func (u *UserSelection) Bind(args, state []float64) {
	checkArity(u.Name(), u.Arity(), args)
	n := 0
	for i := range u.Users {
		usr := &u.Users[i]
		if mean, ok := usr.mean(args[0]); ok {
			state[1+2*n], state[2+2*n] = mean, usr.Volatility
			n++
		}
	}
	state[0] = float64(n)
}

// userChunk is how many active users UserSelection.EvalBound draws per
// pass, in a stack array.
const userChunk = 256

// EvalBound implements PointBox: per lane, Eval's draws for the
// active users Bind kept, in the same order. A lane takes the users a
// chunk at a time: it fills the chunk's standard normals, then takes
// every user's log-normal factor in one Exp pass, then adds mean·factor
// to the total in user order, so the sum rounds as Eval's does.
func (u *UserSelection) EvalBound(state, out []float64, rands []rng.Rand, active []bool) {
	checkLanes(u.Name(), out, rands, active)
	pairs := state[1 : 1+2*int(state[0])]
	var e [userChunk]float64
	for j := range rands {
		if active != nil && !active[j] {
			continue
		}
		r, total := &rands[j], 0.0
		for lo := 0; lo < len(pairs); lo += 2 * userChunk {
			p := pairs[lo:min(lo+2*userChunk, len(pairs))]
			z := e[:len(p)/2]
			r.FillStdNormal(z)
			for i := range z {
				z[i] = math.Exp(rng.NormalFrom(0, p[2*i+1], z[i]))
			}
			for i, f := range z {
				total += p[2*i] * f
			}
		}
		out[j] = total
	}
}

// String describes the dataset size for experiment logs.
func (u *UserSelection) String() string {
	return fmt.Sprintf("UserSelection[%d users]", len(u.Users))
}

// UserUsage is the per-row VG function behind UserSelection, as the
// PDB substrate consumes it: the users dataset is a table and each
// row's weekly usage is an uncertain attribute. Its PointBox binding
// is what lets the set-oriented engine amortize the deterministic
// per-row work (activity test, tenure growth) across all worlds — the
// Fig. 7 "wrapper wins on data-dependent models" effect.
//
// Arguments: (current_week, join_week, base_cores, growth_rate,
// volatility).
type UserUsage struct{}

// Name implements Box.
func (UserUsage) Name() string { return "UserUsage" }

// Arity implements Box.
func (UserUsage) Arity() int { return 5 }

// Eval implements Box (tuple-at-a-time form).
func (UserUsage) Eval(args []float64, r *rng.Rand) float64 {
	checkArity("UserUsage", 5, args)
	mean, ok := usageMean(args)
	if !ok {
		return 0
	}
	return usage(mean, args[4], r)
}

// BoundLen implements PointBox: the bound state is whether the user
// has joined by the week (1 or 0), its mean and its volatility.
func (UserUsage) BoundLen() int { return 3 }

// Bind implements PointBox: the activity test and the tenure growth
// run once per row.
func (UserUsage) Bind(args, state []float64) {
	checkArity("UserUsage", 5, args)
	mean, ok := usageMean(args)
	state[0], state[1], state[2] = 0, mean, args[4]
	if ok {
		state[0] = 1
	}
}

// EvalBound implements PointBox: a bare LogNormal draw per lane for a
// joined user; a user who has not joined draws nothing and reads 0,
// as in Eval. A joined user's lanes are drawn in two passes: each
// active lane's standard normal into out, then one Exp pass.
func (UserUsage) EvalBound(state, out []float64, rands []rng.Rand, active []bool) {
	checkLanes("UserUsage", out, rands, active)
	for j := range rands {
		switch {
		case active != nil && !active[j]:
		case state[0] == 0:
			out[j] = 0
		default:
			out[j] = rands[j].StdNormal()
		}
	}
	if state[0] == 0 {
		return
	}
	mean, vol := state[1], state[2]
	for j, z := range out[:len(rands)] {
		if active == nil || active[j] {
			out[j] = mean * math.Exp(rng.NormalFrom(0, vol, z))
		}
	}
}

// usageMean reads UserUsage's arguments as a row of the users dataset
// and returns that user's mean in the week, as UserSelection computes
// it.
func usageMean(args []float64) (float64, bool) {
	usr := User{JoinWeek: args[1], BaseCores: args[2], GrowthRate: args[3]}
	return usr.mean(args[0])
}
