package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/lid"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

// newScan builds a scan index over pts under the Euclidean metric, failing
// the test on error.
func newScan(t *testing.T, pts [][]float64) *scan.Index {
	t.Helper()
	ix, err := scan.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("scan.New: %v", err)
	}
	return ix
}

func randPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// TestRankCap pins Algorithm 1's rank cap min{n, ⌊2^t·k⌋}: the floor of
// 2^t·k below n, n at or above it, n for t ≤ 0, and saturation at n — no
// overflow — for a scale far past any float64 power of two.
func TestRankCap(t *testing.T) {
	cases := []struct {
		n, k int
		t    float64
		want int
	}{
		{n: 1000, k: 10, t: 0, want: 1000},
		{n: 1000, k: 10, t: -2, want: 1000},
		{n: 1000, k: 10, t: 4, want: 160},
		{n: 1000, k: 10, t: 1.5, want: 28}, // ⌊2^1.5·10⌋ = ⌊28.28⌋
		{n: 160, k: 10, t: 4, want: 160},
		{n: 100, k: 10, t: 4, want: 100},
		{n: 1000, k: 10, t: 1e6, want: 1000},
		{n: math.MaxInt, k: 10, t: 1e6, want: math.MaxInt},
	}
	for _, c := range cases {
		if got := RankCap(c.n, c.k, c.t); got != c.want {
			t.Errorf("RankCap(%d, %d, %g) = %d, want %d", c.n, c.k, c.t, got, c.want)
		}
	}
}

func TestNewQuerierValidation(t *testing.T) {
	pts := randPoints(10, 3, 1)
	ix := newScan(t, pts)
	cases := []struct {
		name   string
		ix     index.Index
		params Params
	}{
		{"nil index", nil, Params{K: 1, T: 2}},
		{"zero k", ix, Params{K: 0, T: 2}},
		{"negative k", ix, Params{K: -3, T: 2}},
		{"zero t", ix, Params{K: 1, T: 0}},
		{"negative t", ix, Params{K: 1, T: -1}},
		{"NaN t", ix, Params{K: 1, T: math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewQuerier(tc.ix, tc.params); err == nil {
				t.Fatalf("NewQuerier(%+v) succeeded, want error", tc.params)
			}
		})
	}
}

func TestQueryValidation(t *testing.T) {
	ix := newScan(t, randPoints(10, 3, 1))
	qr, err := NewQuerier(ix, Params{K: 2, T: 4})
	if err != nil {
		t.Fatalf("NewQuerier: %v", err)
	}
	if _, err := qr.ByID(-1); err == nil {
		t.Error("ByID(-1) succeeded, want error")
	}
	if _, err := qr.ByID(10); err == nil {
		t.Error("ByID(10) succeeded, want error")
	}
	if _, err := qr.ByPoint([]float64{1, 2}); err == nil {
		t.Error("ByPoint with dim mismatch succeeded, want error")
	}
	if _, err := qr.ByPoint([]float64{1, 2, math.NaN()}); err == nil {
		t.Error("ByPoint with NaN succeeded, want error")
	}
}

// TestExactWithLargeT checks that RDT with a scale parameter large enough to
// disable both termination mechanisms degenerates to an exact algorithm, for
// both member and external queries.
func TestExactWithLargeT(t *testing.T) {
	for _, dim := range []int{2, 8} {
		for _, k := range []int{1, 3, 10} {
			pts := randPoints(120, dim, int64(dim*100+k))
			ix := newScan(t, pts)
			truth, err := bruteforce.New(pts, vecmath.Euclidean{})
			if err != nil {
				t.Fatalf("bruteforce.New: %v", err)
			}
			qr, err := NewQuerier(ix, Params{K: k, T: 64})
			if err != nil {
				t.Fatalf("NewQuerier: %v", err)
			}
			for qid := 0; qid < 20; qid++ {
				got, err := qr.ByID(qid)
				if err != nil {
					t.Fatalf("ByID(%d): %v", qid, err)
				}
				want, err := truth.RkNNByID(qid, k)
				if err != nil {
					t.Fatalf("truth: %v", err)
				}
				if !equalIDs(got.IDs, want) {
					t.Errorf("dim=%d k=%d qid=%d: got %v, want %v", dim, k, qid, got.IDs, want)
				}
			}
			// External query points as well.
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 5; i++ {
				q := make([]float64, dim)
				for j := range q {
					q[j] = rng.Float64()
				}
				got, err := qr.ByPoint(q)
				if err != nil {
					t.Fatalf("ByPoint: %v", err)
				}
				want, err := truth.RkNN(q, k)
				if err != nil {
					t.Fatalf("truth: %v", err)
				}
				if !equalIDs(got.IDs, want) {
					t.Errorf("dim=%d k=%d external #%d: got %v, want %v", dim, k, i, got.IDs, want)
				}
			}
		}
	}
}

// TestNoFalsePositivesRDT checks the soundness of plain RDT for any t: with
// the full filter set maintained, lazy accepts (Assertion 2), lazy rejects
// (Assertion 1) and explicit verification are all exact, so every reported
// ID must be a true reverse neighbor regardless of the scale parameter.
func TestNoFalsePositivesRDT(t *testing.T) {
	pts := randPoints(150, 4, 7)
	ix := newScan(t, pts)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("bruteforce.New: %v", err)
	}
	for _, k := range []int{1, 5} {
		for _, tt := range []float64{0.5, 1, 2, 4, 8} {
			qr, err := NewQuerier(ix, Params{K: k, T: tt})
			if err != nil {
				t.Fatalf("NewQuerier: %v", err)
			}
			for qid := 0; qid < 30; qid++ {
				got, err := qr.ByID(qid)
				if err != nil {
					t.Fatalf("ByID: %v", err)
				}
				want, err := truth.RkNNByID(qid, k)
				if err != nil {
					t.Fatalf("truth: %v", err)
				}
				if p := bruteforce.Precision(got.IDs, want); p != 1 {
					t.Errorf("k=%d t=%g qid=%d: precision %.3f, got %v want %v",
						k, tt, qid, p, got.IDs, want)
				}
			}
		}
	}
}

// TestRecallMonotoneInT checks that the candidate set — and therefore recall
// — grows monotonically with the scale parameter, the behaviour the paper's
// time-accuracy tradeoff curves rely on (Section 8.1).
func TestRecallMonotoneInT(t *testing.T) {
	pts := randPoints(200, 6, 11)
	ix := newScan(t, pts)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("bruteforce.New: %v", err)
	}
	k := 5
	ts := []float64{0.5, 1, 2, 3, 5, 8, 12}
	for qid := 0; qid < 15; qid++ {
		want, err := truth.RkNNByID(qid, k)
		if err != nil {
			t.Fatalf("truth: %v", err)
		}
		prevRecall := -1.0
		prevDepth := -1
		for _, tt := range ts {
			qr, err := NewQuerier(ix, Params{K: k, T: tt})
			if err != nil {
				t.Fatalf("NewQuerier: %v", err)
			}
			got, err := qr.ByID(qid)
			if err != nil {
				t.Fatalf("ByID: %v", err)
			}
			r := bruteforce.Recall(got.IDs, want)
			if r < prevRecall {
				t.Errorf("qid=%d: recall decreased from %.3f to %.3f at t=%g", qid, prevRecall, r, tt)
			}
			if got.Stats.ScanDepth < prevDepth {
				t.Errorf("qid=%d: scan depth decreased from %d to %d at t=%g", qid, prevDepth, got.Stats.ScanDepth, tt)
			}
			prevRecall, prevDepth = r, got.Stats.ScanDepth
		}
		if prevRecall != 1 {
			t.Errorf("qid=%d: recall at largest t is %.3f, want 1", qid, prevRecall)
		}
	}
}

// TestTheorem1ExactnessThreshold is the paper's central guarantee: RDT with
// t ≥ MaxGED(S ∪ {q}, k) returns the exact query result.
func TestTheorem1ExactnessThreshold(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		pts := randPoints(80, 3, seed)
		ix := newScan(t, pts)
		truth, err := bruteforce.New(pts, vecmath.Euclidean{})
		if err != nil {
			t.Fatalf("bruteforce.New: %v", err)
		}
		k := 4
		maxged, err := lid.MaxGED(pts, vecmath.Euclidean{}, k)
		if err != nil {
			t.Fatalf("MaxGED: %v", err)
		}
		qr, err := NewQuerier(ix, Params{K: k, T: maxged})
		if err != nil {
			t.Fatalf("NewQuerier: %v", err)
		}
		for qid := 0; qid < 25; qid++ {
			got, err := qr.ByID(qid)
			if err != nil {
				t.Fatalf("ByID: %v", err)
			}
			want, err := truth.RkNNByID(qid, k)
			if err != nil {
				t.Fatalf("truth: %v", err)
			}
			if !equalIDs(got.IDs, want) {
				t.Errorf("seed=%d qid=%d t=MaxGED=%.3f: got %v, want %v",
					seed, qid, maxged, got.IDs, want)
			}
		}
	}
}

// TestExhaustedSearchIsExact checks the Case 1 invariant of Theorem 1's
// proof: whenever the expanding search consumed the entire dataset, the
// result equals the brute-force answer no matter what t was.
func TestExhaustedSearchIsExact(t *testing.T) {
	pts := randPoints(60, 5, 3)
	ix := newScan(t, pts)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("bruteforce.New: %v", err)
	}
	k := 3
	for _, tt := range []float64{1, 2, 4, 16} {
		qr, err := NewQuerier(ix, Params{K: k, T: tt})
		if err != nil {
			t.Fatalf("NewQuerier: %v", err)
		}
		for qid := 0; qid < 20; qid++ {
			got, err := qr.ByID(qid)
			if err != nil {
				t.Fatalf("ByID: %v", err)
			}
			if got.Stats.ScanDepth < ix.Len()-1 {
				continue // search terminated early; nothing to assert
			}
			want, err := truth.RkNNByID(qid, k)
			if err != nil {
				t.Fatalf("truth: %v", err)
			}
			if !equalIDs(got.IDs, want) {
				t.Errorf("t=%g qid=%d: exhausted search inexact: got %v, want %v", tt, qid, got.IDs, want)
			}
		}
	}
}

// TestRDTPlusSubsetOfRDT checks that RDT+ only loses candidates relative to
// RDT through its exclusion rule: every ID reported by RDT+ that is a true
// negative must stem from a lazy accept (the only unsound mechanism, paper
// Section 4.3), and the scan depth must be identical since the exclusion
// rule does not alter the termination condition.
func TestRDTPlusSubsetOfRDT(t *testing.T) {
	pts := randPoints(250, 8, 21)
	ix := newScan(t, pts)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("bruteforce.New: %v", err)
	}
	k := 5
	for _, tt := range []float64{2, 4, 8} {
		rdt, err := NewQuerier(ix, Params{K: k, T: tt})
		if err != nil {
			t.Fatalf("NewQuerier: %v", err)
		}
		plus, err := NewQuerier(ix, Params{K: k, T: tt, Plus: true})
		if err != nil {
			t.Fatalf("NewQuerier: %v", err)
		}
		for qid := 0; qid < 20; qid++ {
			a, err := rdt.ByID(qid)
			if err != nil {
				t.Fatalf("rdt.ByID: %v", err)
			}
			b, err := plus.ByID(qid)
			if err != nil {
				t.Fatalf("plus.ByID: %v", err)
			}
			if a.Stats.ScanDepth != b.Stats.ScanDepth {
				t.Errorf("t=%g qid=%d: scan depth differs: RDT %d, RDT+ %d",
					tt, qid, a.Stats.ScanDepth, b.Stats.ScanDepth)
			}
			want, err := truth.RkNNByID(qid, k)
			if err != nil {
				t.Fatalf("truth: %v", err)
			}
			// All of RDT's answers are correct; RDT+ must find every
			// true answer RDT found (recall never drops from the
			// exclusion rule: excluded points are true negatives and
			// remaining candidates are still verified or accepted).
			if r := bruteforce.Recall(b.IDs, a.IDs); r < 1 {
				t.Errorf("t=%g qid=%d: RDT+ missed RDT answers: RDT %v, RDT+ %v", tt, qid, a.IDs, b.IDs)
			}
			_ = want
		}
	}
}

// TestStatsAccounting checks the bookkeeping identities that the harness
// depends on when reproducing Figure 7: every filter-set member is settled
// exactly once, and the excluded count is zero without Plus.
func TestStatsAccounting(t *testing.T) {
	pts := randPoints(300, 6, 31)
	ix := newScan(t, pts)
	for _, plus := range []bool{false, true} {
		qr, err := NewQuerier(ix, Params{K: 8, T: 6, Plus: plus})
		if err != nil {
			t.Fatalf("NewQuerier: %v", err)
		}
		for qid := 0; qid < 25; qid++ {
			res, err := qr.ByID(qid)
			if err != nil {
				t.Fatalf("ByID: %v", err)
			}
			st := res.Stats
			if !plus && st.Excluded != 0 {
				t.Errorf("plain RDT excluded %d candidates", st.Excluded)
			}
			settled := st.LazyAccepts + (st.LazyRejects - st.Excluded) + st.Verified
			if settled != st.FilterSize {
				t.Errorf("plus=%v qid=%d: accepts(%d) + in-filter rejects(%d) + verified(%d) = %d, want filter size %d",
					plus, qid, st.LazyAccepts, st.LazyRejects-st.Excluded, st.Verified, settled, st.FilterSize)
			}
			if st.Candidates() != st.FilterSize+st.Excluded {
				t.Errorf("Candidates() = %d, want %d", st.Candidates(), st.FilterSize+st.Excluded)
			}
			if got := st.LazyAccepts + st.VerifiedHits; got != len(res.IDs) {
				t.Errorf("plus=%v qid=%d: accepts(%d) + verified hits(%d) = %d, want |result| %d",
					plus, qid, st.LazyAccepts, st.VerifiedHits, got, len(res.IDs))
			}
			if st.ScanDepth < st.FilterSize+st.Excluded {
				t.Errorf("scan depth %d below candidate count %d", st.ScanDepth, st.FilterSize+st.Excluded)
			}
		}
	}
}

// TestDuplicatePoints exercises the d(q,v) > 0 guard of the dimensional test
// and the zero-distance lazy-accept path with coincident points.
func TestDuplicatePoints(t *testing.T) {
	base := randPoints(40, 3, 5)
	pts := make([][]float64, 0, 50)
	pts = append(pts, base...)
	for i := 0; i < 10; i++ { // ten exact duplicates of point 0
		pts = append(pts, vecmath.Clone(base[0]))
	}
	ix := newScan(t, pts)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("bruteforce.New: %v", err)
	}
	k := 3
	qr, err := NewQuerier(ix, Params{K: k, T: 64})
	if err != nil {
		t.Fatalf("NewQuerier: %v", err)
	}
	for _, qid := range []int{0, 45, 20} {
		got, err := qr.ByID(qid)
		if err != nil {
			t.Fatalf("ByID(%d): %v", qid, err)
		}
		want, err := truth.RkNNByID(qid, k)
		if err != nil {
			t.Fatalf("truth: %v", err)
		}
		if !equalIDs(got.IDs, want) {
			t.Errorf("qid=%d with duplicates: got %v, want %v", qid, got.IDs, want)
		}
	}
}

// TestKLargerThanDataset checks the degenerate regime where every point is a
// reverse neighbor of every query — also at a rank so large that any scratch
// sized by K instead of by the filter set could not be allocated.
func TestKLargerThanDataset(t *testing.T) {
	pts := randPoints(10, 2, 9)
	ix := newScan(t, pts)
	for _, k := range []int{50, math.MaxInt32} {
		qr, err := NewQuerier(ix, Params{K: k, T: 4})
		if err != nil {
			t.Fatalf("NewQuerier: %v", err)
		}
		res, err := qr.ByID(0)
		if err != nil {
			t.Fatalf("ByID: %v", err)
		}
		if len(res.IDs) != 9 {
			t.Fatalf("k=%d: got %d reverse neighbors, want all 9", k, len(res.IDs))
		}
	}
}

// TestQuickExactnessProperty drives randomized instances through
// testing/quick: for random small datasets and ranks, RDT at t=64 must agree
// with brute force, and RDT at any t must have perfect precision.
func TestQuickExactnessProperty(t *testing.T) {
	property := func(seed int64, kRaw uint8, tRaw uint8) bool {
		k := int(kRaw%8) + 1
		tVal := 0.5 + float64(tRaw%12)
		pts := randPoints(60, 3, seed)
		ix, err := scan.New(pts, vecmath.Euclidean{})
		if err != nil {
			return false
		}
		truth, err := bruteforce.New(pts, vecmath.Euclidean{})
		if err != nil {
			return false
		}
		qid := int(uint(seed) % 60)
		want, err := truth.RkNNByID(qid, k)
		if err != nil {
			return false
		}
		exact, err := NewQuerier(ix, Params{K: k, T: 64})
		if err != nil {
			return false
		}
		re, err := exact.ByID(qid)
		if err != nil || !equalIDs(re.IDs, want) {
			return false
		}
		approx, err := NewQuerier(ix, Params{K: k, T: tVal})
		if err != nil {
			return false
		}
		ra, err := approx.ByID(qid)
		if err != nil {
			return false
		}
		return bruteforce.Precision(ra.IDs, want) == 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestClusteredWorkload runs RDT+ on a clustered surrogate dataset to cover
// the non-uniform density regime the dimensional test is designed for.
func TestClusteredWorkload(t *testing.T) {
	ds := dataset.Sequoia(400, 17)
	ix := newScan(t, ds.Points)
	truth, err := bruteforce.New(ds.Points, vecmath.Euclidean{})
	if err != nil {
		t.Fatalf("bruteforce.New: %v", err)
	}
	k := 10
	qr, err := NewQuerier(ix, Params{K: k, T: 10, Plus: true})
	if err != nil {
		t.Fatalf("NewQuerier: %v", err)
	}
	var recallSum float64
	const queries = 25
	for qid := 0; qid < queries; qid++ {
		got, err := qr.ByID(qid)
		if err != nil {
			t.Fatalf("ByID: %v", err)
		}
		want, err := truth.RkNNByID(qid, k)
		if err != nil {
			t.Fatalf("truth: %v", err)
		}
		recallSum += bruteforce.Recall(got.IDs, want)
	}
	if mean := recallSum / queries; mean < 0.95 {
		t.Errorf("mean recall %.3f on clustered data at t=10, want >= 0.95", mean)
	}
}

func equalIDs(a, b []int) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
