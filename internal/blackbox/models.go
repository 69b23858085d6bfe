package blackbox

import (
	"math"

	"jigsaw/internal/rng"
)

// This file implements the cloud-infrastructure models of Fig. 6. The
// paper replaced the Azure production constants with ad-hoc values but
// kept model structure; these implementations do the same, with the
// constants as exported, documented fields so experiments can sweep
// them.

// Demand is Algorithm 1 of the paper: a linearly growing Gaussian
// demand forecast whose growth rate changes as of the feature release
// week.
//
//	demand  = Normal(µ: 1·current_week, σ²: 0.1·current_week)
//	if current_week > feature:
//	  demand += Normal(µ: 0.2·(current_week−feature),
//	                   σ²: 0.2·(current_week−feature))
//
// Arguments: (current_week, feature_release).
type Demand struct {
	// BaseRate is the µ growth per week (paper: 1).
	BaseRate float64
	// BaseVarRate is the σ² growth per week (paper: 0.1).
	BaseVarRate float64
	// FeatureRate is the post-release µ growth per week (paper: 0.2).
	FeatureRate float64
	// FeatureVarRate is the post-release σ² growth per week (paper: 0.2).
	FeatureVarRate float64
}

// NewDemand returns the Demand model with the paper's constants.
func NewDemand() *Demand {
	return &Demand{BaseRate: 1, BaseVarRate: 0.1, FeatureRate: 0.2, FeatureVarRate: 0.2}
}

// Name implements Box.
func (*Demand) Name() string { return "DemandModel" }

// Arity implements Box.
func (*Demand) Arity() int { return 2 }

// params derives the week's combined (µ, σ²), Algorithm 1's
// distribution parameters.
func (d *Demand) params(week, feature float64) (mu, variance float64) {
	mu = d.BaseRate * week
	variance = math.Max(0, d.BaseVarRate*week)
	if week > feature {
		dt := week - feature
		mu += d.FeatureRate * dt
		variance += math.Max(0, d.FeatureVarRate*dt)
	}
	return mu, variance
}

// Eval implements Box. Algorithm 1 adds two independent normals after
// the release; their sum is itself normal, and the model samples that
// exact combined distribution with a single variate. The distribution
// is identical to the two-draw form, but every invocation consumes one
// draw on one code path, which is what gives Demand a single basis
// distribution for its entire parameter space (§6.2: "requires only
// one basis distribution for its entire ∼5000 point parameter space").
func (d *Demand) Eval(args []float64, r *rng.Rand) float64 {
	var state [2]float64
	var z, out [1]float64
	d.Bind(args, state[:])
	d.Draw(r, z[:])
	d.Apply(state[:], z[:], 1, []int{0}, out[:])
	return out[0]
}

// BoundLen implements PointBox: the bound state is (µ, σ).
func (*Demand) BoundLen() int { return 2 }

// Bind implements PointBox: it resolves the week's (µ, σ) once, so a
// bound sample is a single normal draw.
func (d *Demand) Bind(args, state []float64) {
	checkArity(d.Name(), d.Arity(), args)
	mu, variance := d.params(args[0], args[1])
	state[0], state[1] = mu, math.Sqrt(variance)
}

// EvalBound implements PointBox: it draws the active lanes' vectors
// into a stack block, laneBlock lanes at a time, and applies each block
// by one Apply.
func (d *Demand) EvalBound(state, out []float64, rands []rng.Rand, active []bool) {
	checkLanes(d.Name(), out, rands, active)
	var z, vals [laneBlock]float64
	var lanes [laneBlock]int
	for j := 0; j < len(rands); {
		var n int
		n, j = activeLanes(&lanes, j, len(rands), active)
		for k, lane := range lanes[:n] {
			d.Draw(&rands[lane], z[k:k+1])
		}
		d.Apply(state, z[:], 1, laneIDs[:n], vals[:n])
		for k, lane := range lanes[:n] {
			out[lane] = vals[k]
		}
	}
}

// Draws implements DrawBox: one standard normal.
func (*Demand) Draws() int { return 1 }

// Draw implements DrawBox.
func (*Demand) Draw(r *rng.Rand, d []float64) { d[0] = r.StdNormal() }

// Apply implements DrawBox, and holds Demand's sample arithmetic: the
// sample whose standard normal variate is z is Normal(µ, σ)'s µ + σ·z.
// µ and σ are read, and σ checked (panicking on a negative σ, as
// rng.NormalFrom does), once for the block.
func (d *Demand) Apply(state, draws []float64, width int, ids []int, out []float64) {
	if !applyLanes(d.Name(), ids, out) {
		return
	}
	mu, sigma := state[0], state[1]
	rng.CheckSigma(sigma)
	out = out[:len(ids)]
	for j, id := range ids {
		out[j] = mu + sigma*draws[id*width]
	}
}

// Capacity simulates a series of purchases, each increasing cluster
// capacity after an exponentially distributed bring-up delay (Fig. 6).
// Away from purchase events the output is the stable base + volume
// sum; in the weeks following a purchase an exponentially shrinking
// fraction of sampled worlds still lacks the new hardware — the
// "structure" around each discontinuity discussed with Fig. 9.
//
// Arguments: (current_week, purchase_week_1, purchase_week_2).
type Capacity struct {
	// Base is the initial number of cores.
	Base float64
	// BaseNoise is the σ of the Gaussian measurement noise on the
	// current capacity.
	BaseNoise float64
	// PurchaseVolume is the cores added per purchase.
	PurchaseVolume float64
	// MeanDelay is the mean of the exponential bring-up delay in
	// weeks; it controls the structure size swept in Fig. 9.
	MeanDelay float64
	// FailRate is the per-week core-failure probability applied to
	// the base pool (binomial thinning, paper's "future expected
	// failure rates").
	FailRate float64
	// FailTrials is the number of failure-prone units in the base
	// pool.
	FailTrials int
}

// NewCapacity returns the Capacity model with ad-hoc defaults in the
// paper's style.
func NewCapacity() *Capacity {
	return &Capacity{
		Base:           100,
		BaseNoise:      1,
		PurchaseVolume: 40,
		MeanDelay:      2,
		FailRate:       0.02,
		FailTrials:     10,
	}
}

// Name implements Box.
func (*Capacity) Name() string { return "CapacityModel" }

// Arity implements Box.
func (*Capacity) Arity() int { return 1 + capacityPurchases }

// capacityPurchases is the number of purchase-week arguments.
const capacityPurchases = 2

// Eval implements Box.
func (c *Capacity) Eval(args []float64, r *rng.Rand) float64 {
	var state, d [capacityPurchases + 2]float64
	var out [1]float64
	c.Bind(args, state[:])
	c.Draw(r, d[:])
	c.Apply(state[:], d[:], len(d), []int{0}, out[:])
	return out[0]
}

// BoundLen implements PointBox: the bound state is the arguments
// followed by the exponential rate.
func (c *Capacity) BoundLen() int { return c.Arity() + 1 }

// Bind implements PointBox.
func (c *Capacity) Bind(args, state []float64) {
	checkArity(c.Name(), c.Arity(), args)
	copy(state, args)
	state[len(args)] = 1 / c.MeanDelay
}

// EvalBound implements PointBox: it draws the active lanes' vectors
// into a stack block, laneBlock lanes at a time, and applies each block
// by one Apply.
func (c *Capacity) EvalBound(state, out []float64, rands []rng.Rand, active []bool) {
	checkLanes(c.Name(), out, rands, active)
	const width = capacityPurchases + 2
	var d [laneBlock * width]float64
	var vals [laneBlock]float64
	var lanes [laneBlock]int
	for j := 0; j < len(rands); {
		var n int
		n, j = activeLanes(&lanes, j, len(rands), active)
		for k, lane := range lanes[:n] {
			c.Draw(&rands[lane], d[k*width:(k+1)*width])
		}
		c.Apply(state, d[:], width, laneIDs[:n], vals[:n])
		for k, lane := range lanes[:n] {
			out[lane] = vals[k]
		}
	}
}

// Draws implements DrawBox: the noise variate, the failure count and
// one Exp(1) delay variate per purchase.
func (*Capacity) Draws() int { return capacityPurchases + 2 }

// Draw implements DrawBox. The random stream is consumed in a fixed
// order (noise, failures, per-purchase delay) regardless of argument
// values, so invocations at different parameter points stay
// comparable under a common seed.
func (c *Capacity) Draw(r *rng.Rand, d []float64) {
	d[0] = r.StdNormal()
	d[1] = float64(r.Binomial(c.FailTrials, c.FailRate))
	for i := 2; i < len(d); i++ {
		d[i] = r.StdExponential()
	}
}

// Apply implements DrawBox, and holds Capacity's sample arithmetic:
// the noisy base (rng.NormalFrom's µ + σ·z) less the failures, plus
// each purchase whose exponential bring-up delay (rng.ExponentialFrom's
// e/rate) has elapsed by the week. The state and the model constants
// are read, and the noise σ and delay rate checked (panicking on a
// negative σ or a non-positive rate, as rng.NormalFrom and then
// rng.ExponentialFrom do), once for the block.
func (c *Capacity) Apply(state, draws []float64, width int, ids []int, out []float64) {
	if !applyLanes(c.Name(), ids, out) {
		return
	}
	base, noise, volume := c.Base, c.BaseNoise, c.PurchaseVolume
	week, rate := state[0], state[1+capacityPurchases]
	var purchases [capacityPurchases]float64
	copy(purchases[:], state[1:])
	rng.CheckSigma(noise)
	rng.CheckRate(rate)
	out = out[:len(ids)]
	for j, id := range ids {
		d := draws[id*width:][:2+capacityPurchases]
		capacity := base + (0 + noise*d[0])
		capacity -= d[1]
		for i, purchase := range purchases {
			if week >= purchase+d[2+i]/rate {
				capacity += volume
			}
		}
		out[j] = capacity
	}
}

// Overload is the black box synthesized from Capacity and Demand
// (Fig. 6): Demand's feature release is ignored (pinned far in the
// future) and the output is 1 when demand exceeds capacity, else 0.
// Its boolean output destroys the linear structure of its inputs,
// which is why Fig. 8 shows only ~2× gain for it (§6.2).
//
// Arguments: (current_week, purchase_week_1, purchase_week_2).
type Overload struct {
	// DemandModel and CapacityModel are the composed boxes.
	DemandModel   *Demand
	CapacityModel *Capacity
	// NoFeature is the pinned feature-release week (beyond any
	// simulated horizon).
	NoFeature float64
}

// NewOverload composes Demand and Capacity models with demand growth
// scaled (ad-hoc, in the paper's style) so the demand curve crosses
// the capacity curve mid-horizon; with the stock constants demand
// would never approach capacity and the overload indicator would be
// degenerately zero.
func NewOverload() *Overload {
	demand := &Demand{BaseRate: 4, BaseVarRate: 4, FeatureRate: 0.2, FeatureVarRate: 0.2}
	return &Overload{DemandModel: demand, CapacityModel: NewCapacity(), NoFeature: math.Inf(1)}
}

// Name implements Box.
func (*Overload) Name() string { return "OverloadModel" }

// Arity implements Box.
func (*Overload) Arity() int { return 3 }

// Eval implements Box.
func (o *Overload) Eval(args []float64, r *rng.Rand) float64 {
	checkArity(o.Name(), o.Arity(), args)
	dargs := [2]float64{args[0], o.NoFeature}
	demand := o.DemandModel.Eval(dargs[:], r)
	capacity := o.CapacityModel.Eval(args, r)
	if capacity < demand {
		return 1
	}
	return 0
}
