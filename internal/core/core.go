// Package core implements RDT and RDT+, the reverse k-nearest-neighbor
// algorithms of Casanova, Englmeier, Houle, Kröger, Nett, Schubert and Zimek:
// "Dimensional Testing for Reverse k-Nearest Neighbor Search", PVLDB 10(7),
// 2017 — the paper's primary contribution (Algorithm 1).
//
// RDT answers an RkNN query at q with a filter-refinement strategy:
//
//   - The filter phase expands a forward nearest-neighbor search outward
//     from q using any index supporting incremental NN queries. The search
//     is cut off by a *dimensional test*: assuming the scale parameter t
//     upper-bounds the local intrinsic dimensionality around the query, an
//     upper bound ω on the query distance of any undiscovered reverse
//     neighbor is maintained from the observed (rank, distance) pairs, and
//     the search stops once the expansion passes ω (Theorem 1).
//   - Witness counting settles most candidates without any further index
//     work: a candidate with k witnesses cannot be a reverse neighbor (lazy
//     reject, Assertion 1), and a candidate whose 2·d(q,x) ball has been
//     fully explored with fewer than k witnesses must be one (lazy accept,
//     Assertion 2).
//   - The refinement phase verifies each remaining candidate x, accepting x
//     iff d_k(x) ≥ d(q,x). The test never needs d_k(x) itself, only whether
//     fewer than k points lie strictly closer to x than q does, so it is
//     answered by one bounded count (index.Index.CountCloser) that stops at
//     k — not by a forward kNN query.
//
// RDT+ (paper Section 4.3) additionally excludes a newly retrieved point
// from the filter set when its first witness cycle already rejects it, which
// bounds the quadratic witness-maintenance cost at a small risk of false
// positives through lazy acceptance.
//
// Note on the paper's pseudocode: lines 10–15 of Algorithm 1 increment W(v)
// under the condition d(q,x) > d(v,x) and W(x) under d(q,v) > d(v,x), which
// is inconsistent with the witness definition W(x) = |{y ∈ F : d(x,y) <
// d(x,q)}| used by Assertions 1 and 2 (the counters are swapped). This
// implementation follows the definition: d(v,x) < d(q,x) makes v a witness
// of x, and d(v,x) < d(q,v) makes x a witness of v.
//
// Note on ties: following the pseudocode's refinement test d_k(v) ≥ d(q,v),
// a point tied exactly at its own k-NN ball boundary counts as a reverse
// neighbor (the convention of practical RkNN systems). The paper's formal
// rank definition instead assigns maximum rank to ties, under which such
// points are excluded — and Theorem 1's exactness threshold is derived for
// that convention. The two agree on tie-free data; on data with large
// duplicate clusters, a boundary-tied reverse neighbor beyond the ω horizon
// can require a scale parameter above MaxGED to be found (fuzzing produced
// a 14-point instance needing t ≈ 87). The unconditional invariants are:
// no false positives at any t (plain RDT), and exactness whenever the
// expanding search exhausts the dataset.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// Params configures a Querier.
type Params struct {
	// K is the reverse neighbor rank: the query returns the points that
	// have q among their K nearest neighbors. Must be positive.
	K int

	// T is the scale parameter t > 0 of the dimensional test, trading
	// result quality for execution time. Theorem 1 guarantees an exact
	// result when T is at least the maximum generalized expansion
	// dimension MaxGED(S ∪ {q}, K); in practice T is set from an
	// intrinsic-dimensionality estimate (package lid, paper Section 6).
	T float64

	// Plus enables the RDT+ candidate-set reduction: points rejected in
	// their first witness cycle never enter the filter set.
	Plus bool
}

func (p Params) validate() error {
	if p.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", p.K)
	}
	if !(p.T > 0) { // also rejects NaN
		return fmt.Errorf("core: T must be positive, got %v", p.T)
	}
	return nil
}

// Stats reports what the filter and refinement phases did for one query.
// The harness aggregates these to reproduce Figure 7 of the paper.
type Stats struct {
	// ScanDepth is s, the number of forward neighbors retrieved before
	// the expanding search terminated.
	ScanDepth int
	// FilterSize is |F|, the number of candidates kept in the filter set.
	FilterSize int
	// Excluded counts candidates RDT+ refused to insert into F (zero for
	// plain RDT).
	Excluded int
	// LazyAccepts counts candidates accepted by Assertion 2.
	LazyAccepts int
	// LazyRejects counts candidates whose witness count reached K,
	// including RDT+ exclusions.
	LazyRejects int
	// Verified counts explicit verifications (one bounded count each)
	// performed in the refinement phase.
	Verified int
	// VerifiedHits counts verifications that confirmed a reverse
	// neighbor.
	VerifiedHits int
	// DistanceComps counts the distances computed by the witness
	// machinery itself (index-internal work is not included). A witness
	// counter is only ever read through w ≥ K, so a cycle computes d(v,x)
	// only while it can still move one across K: it is at most the
	// number of candidate pairs, not equal to it.
	DistanceComps int64
	// Omega is the final value of the termination bound ω
	// (math.Inf(1) if it was never tightened).
	Omega float64
	// TerminatedByOmega records whether the search stopped because the
	// expansion passed ω (as opposed to hitting the 2^t·k rank cap or
	// exhausting the dataset).
	TerminatedByOmega bool
	// DecidedByTable records that the snapshot's complete k-distance table
	// answered the query in one call to the index (kdist.go): the answer is
	// the exact one at any t, ScanDepth and every witness and refinement
	// counter above are 0, and Omega is +Inf.
	DecidedByTable bool
}

// Candidates returns the total number of points that entered the witness
// machinery (filter set plus RDT+ exclusions).
func (s Stats) Candidates() int { return s.FilterSize + s.Excluded }

// Result is the answer to one reverse k-nearest-neighbor query.
type Result struct {
	// IDs holds the reverse k-nearest neighbors found, sorted ascending.
	IDs []int
	// Stats describes the work performed.
	Stats Stats
}

// scaleStrategy yields the scale parameter in effect at each step of the
// expanding search. The fixed strategy realizes the paper's Algorithm 1;
// the adaptive strategy (adaptive.go) implements the dynamic adjustment the
// paper poses as future work (Section 9).
type scaleStrategy interface {
	// observe ingests the s-th retrieved neighbor distance and returns
	// the scale parameter to use for this step's dimensional test.
	observe(s int, dist float64) float64
}

// fixedScale is Algorithm 1's constant t. It holds no per-query state, so
// one instance, allocated with the Querier, serves every query: a pointer
// converts to the interface without a heap copy.
type fixedScale struct{ t float64 }

func (f *fixedScale) observe(int, float64) float64 { return f.t }

// Source is everything Algorithm 1 asks of its auxiliary structure:
// incremental forward nearest-neighbor search (paper Section 4) plus the
// bounded count of the refinement test. Every index.Index is one; so is a
// k-way merge of shard cursors, which is how the sharded engines run this
// very algorithm over a partitioned dataset.
type Source interface {
	Len() int
	Dim() int
	Point(id int) []float64
	Metric() vecmath.Metric
	NewCursor(q []float64, skipID int) index.Cursor
	CountCloser(q []float64, r float64, limit, skipID int, dead *index.Tombstones) int
}

// Querier answers RkNN queries over a fixed index using RDT or RDT+. It is
// safe for concurrent use as long as the underlying index is.
type Querier struct {
	ix       Source
	metric   vecmath.Metric
	batch    vecmath.BatchDistanceFunc // the witness cycle's one-vs-many kernel
	params   Params
	newScale func() scaleStrategy    // fresh per-query state
	table    atomic.Pointer[kdTable] // the k-distance table once complete (kdist.go); nil until then
}

// NewQuerier validates the parameters and returns a Querier over ix.
func NewQuerier(ix Source, params Params) (*Querier, error) {
	if ix == nil {
		return nil, errors.New("core: nil index")
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	if ix.Len() == 0 {
		return nil, errors.New("core: empty index")
	}
	fixed := &fixedScale{t: params.T}
	return &Querier{
		ix:       ix,
		metric:   ix.Metric(),
		batch:    vecmath.BatchFor(ix.Metric()),
		params:   params,
		newScale: func() scaleStrategy { return fixed },
	}, nil
}

// Params returns the parameters the Querier was built with.
func (qr *Querier) Params() Params { return qr.params }

// ErrDeletedID reports a member query anchored at a tombstoned point.
// Callers racing deletes (the serving layer, streaming workloads) match it
// with errors.Is to tell "gone" from "never existed".
var ErrDeletedID = errors.New("query id is deleted")

// ByID answers the query for dataset member qid. The member itself is
// excluded from its own neighborhoods per the self-exclusion convention.
// On indexes with tombstoned deletes (index.Liveness) the live IDs are not
// the dense prefix [0, Len()), so validation goes through the ID span and
// rejects deleted members with ErrDeletedID.
func (qr *Querier) ByID(qid int) (*Result, error) {
	return boxed(qr.ByIDCtx(context.Background(), qid))
}

// ByIDCtx is ByID with a context, returning the Result by value so that a
// serving path allocates nothing but the answer's IDs. When ctx carries a
// trace span the query hangs a "core.rknn" span off it (run); an untraced
// context costs one nil check and nothing else.
func (qr *Querier) ByIDCtx(ctx context.Context, qid int) (Result, error) {
	if lv, ok := qr.ix.(index.Liveness); ok {
		if qid < 0 || qid >= lv.IDSpan() {
			return Result{}, fmt.Errorf("core: query id %d out of range [0,%d)", qid, lv.IDSpan())
		}
		if !lv.Live(qid) {
			return Result{}, fmt.Errorf("core: query id %d: %w", qid, ErrDeletedID)
		}
	} else if qid < 0 || qid >= qr.ix.Len() {
		return Result{}, fmt.Errorf("core: query id %d out of range [0,%d)", qid, qr.ix.Len())
	}
	return qr.run(ctx, qr.ix.Point(qid), qid), nil
}

// ByPoint answers the query for an arbitrary point q, which need not be a
// dataset member.
func (qr *Querier) ByPoint(q []float64) (*Result, error) {
	return boxed(qr.ByPointCtx(context.Background(), q))
}

// ByPointCtx is ByPoint with a context, by value and traced like ByIDCtx.
func (qr *Querier) ByPointCtx(ctx context.Context, q []float64) (Result, error) {
	if err := vecmath.ValidateFor(qr.metric, q); err != nil {
		return Result{}, err
	}
	if len(q) != qr.ix.Dim() {
		return Result{}, fmt.Errorf("core: query dimension %d, index dimension %d: %w",
			len(q), qr.ix.Dim(), vecmath.ErrDimensionMismatch)
	}
	return qr.run(ctx, q, -1), nil
}

// boxed is the *Result form of a by-value answer.
func boxed(res Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// candidate is one member of the filter set F.
type candidate struct {
	id       int
	point    []float64
	dq       float64 // d(q, x)
	w        int     // witness count W(x)
	accepted bool    // lazily accepted by Assertion 2
}

// settled reports whether x's outcome no longer depends on its witness
// counter: it is lazily accepted, or lazily rejected with k witnesses. The
// counter is read nowhere but through this test.
func (x *candidate) settled(k int) bool { return x.accepted || x.w >= k }

// scratch is the transient state of one query: the filter set F, and F's
// points split by whether the member is still unsettled, laid out as the
// row lists the one-vs-many kernel takes, the refinement's batch of probes,
// and the answer as it is found, which the query copies out once, at its
// length.
type scratch struct {
	filter      []candidate
	open        []int              // filter indexes of the unsettled members, ascending
	openRows    [][]float64        // their points, in step with open
	settledRows [][]float64        // points of the settled members
	dists       []float64          // kernel output
	probes      []index.CountQuery // the refinement's batch (index.BatchCounter)
	ids         []int              // the reverse neighbors found so far
}

// release drops every point reference so the pool pins no dataset, and keeps
// the backing arrays.
func (sc *scratch) release() {
	clear(sc.filter)
	clear(sc.openRows)
	clear(sc.settledRows)
	clear(sc.probes)
	sc.filter, sc.open, sc.probes = sc.filter[:0], sc.open[:0], sc.probes[:0]
	sc.openRows, sc.settledRows = sc.openRows[:0], sc.settledRows[:0]
	sc.ids = sc.ids[:0]
	scratchPool.Put(sc)
}

// scratchPool recycles the per-query scratch across queries. The filter set
// is the dominant transient allocation of Algorithm 1, and a serving process
// answers queries in a steady stream; pooling keeps the per-query garbage
// near zero under concurrent load.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// witnessCycle runs lines 8–19 of Algorithm 1 for the newly retrieved v: it
// updates v's witness counter and those of the filter members against each
// other and applies the lazy-accept test to the members.
//
// It computes d(v,x) only where the distance can still change an outcome.
// Every unsettled member x needs it — for its own counter and for the
// lazy-accept test, which is evaluated on exactly the members the plain
// pairwise loop evaluates it on. A settled member x can only contribute to
// v's counter, so it is measured only while v.w < k. The counters are read
// only through w ≥ k, so the accepted and rejected sets and every Stats field
// but DistanceComps are those of the pairwise loop; v.w and a settled
// member's w may stop short of their pairwise values, on the far side of k.
func (qr *Querier) witnessCycle(sc *scratch, v *candidate, stats *Stats) {
	k := qr.params.K
	before := sc.settledRows // settled before this cycle; those it settles are measured as open
	if need := max(len(sc.open), min(k, len(before))); cap(sc.dists) < need {
		sc.dists = make([]float64, 2*need)
	}
	dists := sc.dists[:len(sc.open)]
	qr.batch(v.point, sc.openRows, dists)
	stats.DistanceComps += int64(len(dists))

	keep := 0
	for j, i := range sc.open {
		x := &sc.filter[i]
		dvx := dists[j]
		if dvx < x.dq { // v witnesses x
			x.w++
		}
		if dvx < v.dq { // x witnesses v
			v.w++
		}
		if x.w < k && v.dq >= 2*x.dq {
			x.accepted = true
			stats.LazyAccepts++
		}
		if x.settled(k) {
			sc.settledRows = append(sc.settledRows, x.point)
		} else {
			sc.open[keep], sc.openRows[keep] = i, x.point
			keep++
		}
	}
	clear(sc.openRows[keep:])
	sc.open, sc.openRows = sc.open[:keep], sc.openRows[:keep]

	// k − v.w rows are the fewest that can settle v, so no distance is
	// computed past the one that does.
	for len(before) > 0 && v.w < k {
		rows := before[:min(k-v.w, len(before))]
		before = before[len(rows):]
		dists = sc.dists[:len(rows)]
		qr.batch(v.point, rows, dists)
		stats.DistanceComps += int64(len(rows))
		for _, dvx := range dists {
			if dvx < v.dq {
				v.w++
			}
		}
	}
}

// admit appends v to the filter set, on the side its counter puts it.
func (sc *scratch) admit(v candidate, k int) {
	if v.settled(k) {
		sc.settledRows = append(sc.settledRows, v.point)
	} else {
		sc.open = append(sc.open, len(sc.filter))
		sc.openRows = append(sc.openRows, v.point)
	}
	sc.filter = append(sc.filter, v)
}

// ctxCursorIndex is an optional index capability: a cursor constructor
// receiving the query context, so layered indexes (the overlay) can hang
// their own spans off the query's trace. Only consulted when the query is
// actually traced.
type ctxCursorIndex interface {
	NewCursorCtx(ctx context.Context, q []float64, skipID int) index.Cursor
}

// RankCap is Algorithm 1's rank cap min{n, ⌊2^t·k⌋} (line 24): the deepest
// rank the expanding search reaches at scale t. It is evaluated in floating
// point, so a large t saturates at n instead of overflowing; t ≤ 0 (no fixed
// scale) gives n.
func RankCap(n, k int, t float64) int {
	if t > 0 {
		if c := math.Pow(2, t) * float64(k); c < float64(n) {
			return int(c)
		}
	}
	return n
}

// run answers one query. skipID excludes a member query from its own answer;
// -1 disables the exclusion. Once the rank's k-distance table is complete
// the answer is one call to the index (kdist.go): every x ≠ q with d(q,x) ≤
// kd[x], no scan, no witness and no refinement. Before, it is Algorithm 1
// (algorithm1). Either way the answer is gathered in the pooled scratch and
// copied out once, at its length.
//
// When ctx carries a trace span, run opens "core.rknn" with the full Stats
// attached as attributes; Algorithm 1 hangs its stage spans beneath it.
// Untraced queries pay one nil check.
func (qr *Querier) run(ctx context.Context, q []float64, skipID int) Result {
	qsp := trace.FromContext(ctx).Child("core.rknn")
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	var stats Stats
	if tab := qr.table.Load(); tab != nil {
		sc.ids = tab.walk.ReverseByTable(q, skipID, tab.kd, tab.bound, sc.ids)
		stats = Stats{Omega: math.Inf(1), DecidedByTable: true}
	} else {
		stats = qr.algorithm1(ctx, qsp, sc, q, skipID)
	}
	var ids []int
	if len(sc.ids) > 0 {
		slices.Sort(sc.ids)
		ids = slices.Clone(sc.ids)
	}
	if qsp != nil {
		setStatsAttrs(qsp, qr.params.K, stats)
		qsp.End()
	}
	return Result{IDs: ids, Stats: stats}
}

// algorithm1 executes Algorithm 1, appending the answer to sc.ids.
//
// When qsp is a trace span it gets three stage children: "core.scan"
// (cursor-driving time of the expanding forward search), "core.filter"
// (witness-cycle time, measured by accumulation since it interleaves with
// the scan) and "core.verify" (refinement). All time.Now() reads are guarded
// behind the nil check.
func (qr *Querier) algorithm1(ctx context.Context, qsp *trace.Span, sc *scratch, q []float64, skipID int) Stats {
	k := qr.params.K
	scale := qr.newScale()
	n := qr.ix.Len()
	if skipID >= 0 {
		n-- // the query itself is not a candidate
	}
	traced := qsp != nil
	stats := Stats{Omega: math.Inf(1)}
	omega := math.Inf(1)

	var cursor index.Cursor
	var scanStart time.Time
	var filterDur time.Duration
	if traced {
		if cix, ok := qr.ix.(ctxCursorIndex); ok {
			cursor = cix.NewCursorCtx(trace.With(ctx, qsp), q, skipID)
		}
		scanStart = time.Now()
	}
	if cursor == nil {
		cursor = qr.ix.NewCursor(q, skipID)
	}
	// sMax is the loop exit's rank cap for the scale parameter capT; a
	// step recomputes it only when its own t differs (line 24 below).
	sMax, capT := n, math.NaN()
	s := 0
	for {
		nb, ok := cursor.Next()
		if !ok {
			break // dataset exhausted
		}
		s++
		t := scale.observe(s, nb.Dist)
		v := candidate{id: nb.ID, point: qr.ix.Point(nb.ID), dq: nb.Dist}
		var cycleStart time.Time
		if traced {
			cycleStart = time.Now()
		}
		qr.witnessCycle(sc, &v, &stats)
		// Line 20 with the RDT+ exclusion rule (Section 4.3): a point
		// already holding k witnesses after its first cycle is a settled
		// true negative; keeping it in F would only inflate the quadratic
		// witness cost. Never applied to the first k candidates, which
		// cannot have reached the threshold.
		if qr.params.Plus && s > k && v.w >= k {
			stats.Excluded++
		} else {
			sc.admit(v, k)
		}
		if traced {
			filterDur += time.Since(cycleStart)
		}

		// Dimensional test (lines 21–23): tighten the termination
		// bound ω from the observed (rank, distance) pair. Guarded by
		// s > k so the GED denominator is positive, and by d(q,v) > 0
		// to ignore duplicates of the query point.
		if s > k && nb.Dist > 0 {
			denom := math.Pow(float64(s)/float64(k), 1/t) - 1
			if denom > 0 {
				if w := nb.Dist / denom; w < omega {
					omega = w
				}
			}
		}

		// Loop exit (line 24), with the rank cap for the step's scale
		// parameter.
		if nb.Dist > omega {
			stats.TerminatedByOmega = true
			break
		}
		if t != capT {
			capT, sMax = t, RankCap(n, k, t)
		}
		if s >= sMax {
			break
		}
	}

	filter := sc.filter
	stats.ScanDepth = s
	stats.FilterSize = len(filter)
	stats.Omega = omega

	// The scan and filter stages interleave inside one loop, so their
	// spans are retro-dated from accumulated durations: filter time is
	// the summed witness cycles, scan time is the rest of the loop
	// (cursor driving and termination tests).
	if traced {
		loopDur := time.Since(scanStart)
		ssp := qsp.ChildAt("core.scan", scanStart)
		ssp.SetInt("scan_depth", int64(s))
		ssp.SetBool("terminated_by_omega", stats.TerminatedByOmega)
		ssp.EndWithDuration(loopDur - filterDur)
		fsp := qsp.ChildAt("core.filter", scanStart)
		fsp.SetInt("filter_size", int64(len(filter)))
		fsp.SetInt("excluded", int64(stats.Excluded))
		fsp.SetInt("distance_comps", stats.DistanceComps)
		fsp.EndWithDuration(filterDur)
	}
	// The scan is over: the cursor's memory goes to the next query, and a
	// traced cursor emits the spans it accumulated while being driven.
	cursor.Close()
	vsp := qsp.Child("core.verify") // nil, as qsp is, on an untraced query

	// Refinement phase (lines 25–32): settle every candidate that is
	// neither lazily accepted nor lazily rejected with one explicit
	// verification — one at a time against a single index, in one batch
	// against an index that asks for it (index.BatchCounter).
	batch, batched := qr.ix.(index.BatchCounter)
	unsettled := sc.probes
	for i := range filter {
		x := &filter[i]
		switch {
		case x.accepted:
			sc.ids = append(sc.ids, x.id)
		case x.w >= k:
			stats.LazyRejects++
		case batched:
			unsettled = append(unsettled, index.CountQuery{Point: x.point, Radius: x.dq, Limit: k, Skip: x.id})
		default:
			stats.Verified++
			if qr.verify(x) {
				stats.VerifiedHits++
				sc.ids = append(sc.ids, x.id)
			}
		}
	}
	sc.probes = unsettled
	if len(unsettled) > 0 {
		stats.Verified = len(unsettled)
		bctx := ctx
		if traced {
			bctx = trace.With(ctx, vsp) // the count round nests under core.verify
		}
		for i, closer := range batch.CountCloserBatch(bctx, unsettled) {
			if closer < k {
				stats.VerifiedHits++
				sc.ids = append(sc.ids, unsettled[i].Skip)
			}
		}
	}
	stats.LazyRejects += stats.Excluded
	if traced {
		vsp.SetInt("verified", int64(stats.Verified))
		vsp.SetInt("verified_hits", int64(stats.VerifiedHits))
		vsp.SetInt("lazy_accepts", int64(stats.LazyAccepts))
		vsp.SetInt("lazy_rejects", int64(stats.LazyRejects))
		vsp.End()
	}
	return stats
}

// setStatsAttrs attaches the full per-query Stats to a span, so a trace
// carries the same accounting the paper's experimental methodology
// aggregates (candidates, lazy settlements, verifications, ω).
func setStatsAttrs(sp *trace.Span, k int, st Stats) {
	sp.SetInt("k", int64(k))
	sp.SetInt("scan_depth", int64(st.ScanDepth))
	sp.SetInt("filter_size", int64(st.FilterSize))
	sp.SetInt("excluded", int64(st.Excluded))
	sp.SetInt("lazy_accepts", int64(st.LazyAccepts))
	sp.SetInt("lazy_rejects", int64(st.LazyRejects))
	sp.SetInt("verified", int64(st.Verified))
	sp.SetInt("verified_hits", int64(st.VerifiedHits))
	sp.SetInt("distance_comps", st.DistanceComps)
	if !math.IsInf(st.Omega, 1) {
		sp.SetFloat("omega", st.Omega)
	}
	sp.SetBool("terminated_by_omega", st.TerminatedByOmega)
	sp.SetBool("decided_by_table", st.DecidedByTable)
}

// verify runs the explicit refinement test d_k(x) ≥ d(q,x) (lines 26–29) as
// a count: x is accepted iff fewer than k points other than x lie strictly
// closer to x than q does. That is the same predicate — d_k(x) ≥ d(q,x)
// fails exactly when the k-th nearest distance, hence k points, fall below
// d(q,x); a point tied at d(q,x) is not counted, so boundary ties accept;
// a dataset holding fewer than k other points trivially accepts — and the
// index settles it without ranking a single neighbor.
func (qr *Querier) verify(x *candidate) bool {
	k := qr.params.K
	return qr.ix.CountCloser(x.point, x.dq, k, x.id, nil) < k
}
