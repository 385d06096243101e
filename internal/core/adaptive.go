package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// AdaptiveParams configures the adaptive-scale variant of RDT+, which the
// paper poses as future work (Section 9: "it would be interesting to study
// the behavior of RDT and RDT+ when the value of t is dynamically adjusted
// during the execution of individual queries").
//
// Instead of a user-supplied t, each step of the expanding search sets the
// scale parameter from the maximum-likelihood (Hill) estimate of local
// intrinsic dimensionality over the distances observed so far from this
// very query — the same estimator the paper uses offline (Section 6), but
// evaluated online on the neighborhood actually being explored, so the
// termination bound adapts to the local dimensional structure instead of a
// global average.
type AdaptiveParams struct {
	// K is the reverse neighbor rank.
	K int
	// Multiplier scales the online estimate before use; values above 1
	// add a recall safety margin (default 1).
	Multiplier float64
	// MinT and MaxT clamp the scale parameter; MaxT also serves as the
	// scale during the warm-up steps before the estimate stabilizes.
	// Defaults 1 and 24.
	MinT, MaxT float64
	// Warmup is the number of retrieved neighbors before the estimate is
	// trusted; until then MaxT is used (search generously). Default 2·K.
	Warmup int
	// Plus enables the RDT+ candidate-set reduction.
	Plus bool
}

func (p *AdaptiveParams) setDefaults() {
	if p.Multiplier == 0 {
		p.Multiplier = 1
	}
	if p.MinT == 0 {
		p.MinT = 1
	}
	if p.MaxT == 0 {
		p.MaxT = 24
	}
	if p.Warmup == 0 {
		p.Warmup = 2 * p.K
	}
}

func (p AdaptiveParams) validate() error {
	if p.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", p.K)
	}
	if !(p.Multiplier > 0) {
		return fmt.Errorf("core: Multiplier must be positive, got %v", p.Multiplier)
	}
	if !(p.MinT > 0) || !(p.MaxT >= p.MinT) {
		return fmt.Errorf("core: need 0 < MinT <= MaxT, got %v, %v", p.MinT, p.MaxT)
	}
	if p.Warmup < 0 {
		return fmt.Errorf("core: Warmup must be non-negative, got %d", p.Warmup)
	}
	return nil
}

// hillScale adapts the scale parameter online: over the observed neighbor
// distances d_1 ≤ … ≤ d_s it maintains the Hill estimate
//
//	ID ≈ −cnt / ( Σ ln d_i − cnt·ln d_s )
//
// in O(1) per step (only the running log-sum is stored), clamps it to
// [MinT, MaxT] after the multiplier, and reports MaxT during warm-up.
type hillScale struct {
	p      AdaptiveParams
	logSum float64
	count  int
}

func (h *hillScale) observe(s int, dist float64) float64 {
	if dist > 0 {
		h.logSum += math.Log(dist)
		h.count++
	}
	if s < h.p.Warmup || h.count < 2 {
		return h.p.MaxT
	}
	denom := h.logSum - float64(h.count)*math.Log(dist)
	// denom <= 0 since every prior distance is at most dist; zero means
	// all observed distances are equal (no dimensional signal yet).
	if denom >= 0 {
		return h.p.MaxT
	}
	t := h.p.Multiplier * (-float64(h.count) / denom)
	if t < h.p.MinT {
		return h.p.MinT
	}
	if t > h.p.MaxT {
		return h.p.MaxT
	}
	return t
}

// NewAdaptiveQuerier returns a Querier whose dimensional test re-estimates
// the scale parameter at every step of the expanding search.
func NewAdaptiveQuerier(ix Source, params AdaptiveParams) (*Querier, error) {
	if ix == nil {
		return nil, errors.New("core: nil index")
	}
	params.setDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}
	if ix.Len() == 0 {
		return nil, errors.New("core: empty index")
	}
	return &Querier{
		ix:     ix,
		metric: ix.Metric(),
		batch:  vecmath.BatchFor(ix.Metric()),
		// The embedded fixed parameters carry K and Plus; T records
		// the ceiling for introspection.
		params:   Params{K: params.K, T: params.MaxT, Plus: params.Plus},
		newScale: func() scaleStrategy { return &hillScale{p: params} },
	}, nil
}
