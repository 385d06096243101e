// Package sft implements the SFT heuristic of Singh, Ferhatosmanoglu and
// Tosun ("High dimensional reverse nearest neighbor queries", CIKM 2003),
// the approximate competitor in the paper's evaluation (Section 2.2).
//
// SFT answers a reverse k-nearest-neighbor query in three steps:
//
//  1. Boundary: retrieve the ⌈αk⌉ forward nearest neighbors of the query as
//     the candidate set, for an oversampling factor α ≥ 1.
//  2. Filter: reject any candidate that already has k witnesses among the
//     candidates themselves (pairwise distance computations only).
//  3. Verification: settle the survivors with one bounded count each —
//     x is a reverse neighbor iff fewer than k database objects lie
//     strictly closer to x than the query does.
//
// The recall of the method is governed by α: any reverse neighbor whose
// forward rank exceeds ⌈αk⌉ is missed. This contrasts with RDT, whose
// dimensional test adapts the search depth to the distance distribution
// around the query (paper Section 9).
package sft

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/index"
	"repro/internal/vecmath"
)

// Params configures a Querier.
type Params struct {
	// K is the reverse neighbor rank.
	K int
	// Alpha is the oversampling factor: ⌈Alpha·K⌉ forward neighbors are
	// drawn as candidates. Must be >= 1.
	Alpha float64
}

func (p Params) validate() error {
	if p.K <= 0 {
		return fmt.Errorf("sft: K must be positive, got %d", p.K)
	}
	if !(p.Alpha >= 1) {
		return fmt.Errorf("sft: Alpha must be >= 1, got %v", p.Alpha)
	}
	return nil
}

// Stats reports the work one query performed.
type Stats struct {
	// Candidates is the boundary-set size ⌈αk⌉ actually retrieved.
	Candidates int
	// FilterRejects counts candidates settled by the pairwise filter.
	FilterRejects int
	// Verified counts the verification counts issued.
	Verified int
}

// Result is the answer to one query.
type Result struct {
	IDs   []int
	Stats Stats
}

// Querier answers approximate RkNN queries over a fixed index with the SFT
// heuristic. It is safe for concurrent use if the index is.
type Querier struct {
	ix     index.Index
	metric vecmath.Metric
	params Params
}

// NewQuerier validates the parameters and returns a Querier over ix.
func NewQuerier(ix index.Index, params Params) (*Querier, error) {
	if ix == nil {
		return nil, errors.New("sft: nil index")
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	if ix.Len() == 0 {
		return nil, errors.New("sft: empty index")
	}
	return &Querier{ix: ix, metric: ix.Metric(), params: params}, nil
}

// ByID answers the query for dataset member qid.
func (qr *Querier) ByID(qid int) (*Result, error) {
	if qid < 0 || qid >= qr.ix.Len() {
		return nil, fmt.Errorf("sft: query id %d out of range [0,%d)", qid, qr.ix.Len())
	}
	return qr.run(qr.ix.Point(qid), qid), nil
}

// ByPoint answers the query for an arbitrary point.
func (qr *Querier) ByPoint(q []float64) (*Result, error) {
	if err := vecmath.ValidateFor(qr.metric, q); err != nil {
		return nil, err
	}
	if len(q) != qr.ix.Dim() {
		return nil, vecmath.ErrDimensionMismatch
	}
	return qr.run(q, -1), nil
}

func (qr *Querier) run(q []float64, skipID int) *Result {
	k := qr.params.K
	boundary := int(math.Ceil(qr.params.Alpha * float64(k)))
	cands := qr.ix.KNN(q, boundary, skipID)

	var stats Stats
	stats.Candidates = len(cands)

	// Pairwise filter: count, for every candidate, how many of the other
	// candidates are strictly closer to it than the query is.
	witnesses := make([]int, len(cands))
	for i := range cands {
		pi := qr.ix.Point(cands[i].ID)
		for j := i + 1; j < len(cands); j++ {
			d := qr.metric.Distance(pi, qr.ix.Point(cands[j].ID))
			if d < cands[i].Dist {
				witnesses[i]++
			}
			if d < cands[j].Dist {
				witnesses[j]++
			}
		}
	}

	var ids []int
	for i, c := range cands {
		if witnesses[i] >= k {
			stats.FilterRejects++
			continue
		}
		stats.Verified++
		if qr.verify(c) {
			ids = append(ids, c.ID)
		}
	}
	sort.Ints(ids)
	return &Result{IDs: ids, Stats: stats}
}

// verify settles candidate c with one bounded strict count: c is a reverse
// neighbor iff fewer than k database objects other than c lie strictly
// closer to it than the query does. The count is strict, so boundary ties
// resolve as in the ground truth (accept on tie), and it stops at k.
func (qr *Querier) verify(c index.Neighbor) bool {
	return qr.ix.CountCloser(qr.ix.Point(c.ID), c.Dist, qr.params.K, c.ID, nil) < qr.params.K
}
