package bruteforce

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vecmath"
)

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

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, vecmath.Euclidean{}); err == nil {
		t.Error("accepted empty dataset")
	}
	if _, err := New([][]float64{{1}}, nil); err == nil {
		t.Error("accepted nil metric")
	}
}

// TestRkNNHandConstructed verifies the reverse-neighbor semantics on a
// 1-D configuration small enough to reason about by hand:
//
//	positions:  a=0  b=1  c=3  d=7
//
// With k=1: a's NN is b; b's NN is a; c's NN is b; d's NN is c.
// So R1NN(b) = {a, c}, R1NN(a) = {b}, R1NN(c) = {d}, R1NN(d) = {}.
func TestRkNNHandConstructed(t *testing.T) {
	pts := [][]float64{{0}, {1}, {3}, {7}}
	tr, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		qid  int
		want []int
	}{
		{0, []int{1}},
		{1, []int{0, 2}},
		{2, []int{3}},
		{3, nil},
	}
	for _, tc := range cases {
		got, err := tr.RkNNByID(tc.qid, 1)
		if err != nil {
			t.Fatalf("RkNNByID(%d): %v", tc.qid, err)
		}
		if !equalIDs(got, tc.want) {
			t.Errorf("R1NN(%d) = %v, want %v", tc.qid, got, tc.want)
		}
	}
}

// TestRkNNMatchesDefinition cross-checks the optimized loop against a direct
// O(n²) transcription of the definition via full kNN lists.
func TestRkNNMatchesDefinition(t *testing.T) {
	pts := randPoints(70, 3, 11)
	metric := vecmath.Euclidean{}
	tr, err := New(pts, metric)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 15} {
		for qid := 0; qid < 20; qid++ {
			got, err := tr.RkNNByID(qid, k)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for x := range pts {
				if x == qid {
					continue
				}
				// q is a reverse neighbor of x iff fewer than k
				// other points are strictly closer to x.
				dxq := metric.Distance(pts[x], pts[qid])
				closer := 0
				for y := range pts {
					if y == x {
						continue
					}
					if metric.Distance(pts[x], pts[y]) < dxq {
						closer++
					}
				}
				if closer < k {
					want = append(want, x)
				}
			}
			sort.Ints(want)
			if !equalIDs(got, want) {
				t.Errorf("k=%d qid=%d: got %v, want %v", k, qid, got, want)
			}
		}
	}
}

func TestExternalQuery(t *testing.T) {
	pts := [][]float64{{0}, {10}}
	tr, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	// An external query at 1 is closer to point 0 than point 10 is, so 0
	// is a reverse 1-NN of it; point 10's nearest is 0 (distance 9 < 10),
	// wait: d(10, q)=9 < d(10, 0)=10, so 10 is also a reverse 1-NN.
	got, err := tr.RkNN([]float64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, []int{0, 1}) {
		t.Errorf("got %v, want [0 1]", got)
	}
	if _, err := tr.RkNN([]float64{1, 2}, 1); err == nil {
		t.Error("accepted dimension mismatch")
	}
	if _, err := tr.RkNN([]float64{1}, 0); err == nil {
		t.Error("accepted k=0")
	}
}

func TestRkNNByIDErrors(t *testing.T) {
	tr, err := New(randPoints(5, 2, 1), vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RkNNByID(-1, 1); err == nil {
		t.Error("accepted negative id")
	}
	if _, err := tr.RkNNByID(5, 1); err == nil {
		t.Error("accepted out-of-range id")
	}
	if _, err := tr.RkNNByID(0, 0); err == nil {
		t.Error("accepted k=0")
	}
}

func TestKNNDists(t *testing.T) {
	pts := [][]float64{{0}, {1}, {3}}
	tr, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := tr.KNNDists(1)
	if err != nil {
		t.Fatal(err)
	}
	want1 := []float64{1, 1, 2}
	for i := range want1 {
		if d1[i] != want1[i] {
			t.Errorf("d1[%d] = %g, want %g", i, d1[i], want1[i])
		}
	}
	// k beyond the dataset clamps to the farthest neighbor.
	d9, err := tr.KNNDists(9)
	if err != nil {
		t.Fatal(err)
	}
	want9 := []float64{3, 2, 3}
	for i := range want9 {
		if d9[i] != want9[i] {
			t.Errorf("d9[%d] = %g, want %g", i, d9[i], want9[i])
		}
	}
	if _, err := tr.KNNDists(0); err == nil {
		t.Error("accepted k=0")
	}
}

func TestRecallPrecision(t *testing.T) {
	want := []int{1, 2, 3, 4}
	if r := Recall([]int{1, 2}, want); r != 0.5 {
		t.Errorf("Recall = %g, want 0.5", r)
	}
	if r := Recall(nil, want); r != 0 {
		t.Errorf("Recall(empty) = %g, want 0", r)
	}
	if r := Recall([]int{9}, nil); r != 1 {
		t.Errorf("Recall vs empty truth = %g, want 1", r)
	}
	if p := Precision([]int{1, 9}, want); p != 0.5 {
		t.Errorf("Precision = %g, want 0.5", p)
	}
	if p := Precision(nil, want); p != 1 {
		t.Errorf("Precision(empty) = %g, want 1", p)
	}
}

// TestReverseKNNLiveFilter: over rows with tombstones, the oracle's live
// filter skips the dead IDs — as candidates and as witnesses, never reading
// their rows — and answers exactly what Truth answers over the compacted live
// rows, for member and non-member queries.
func TestReverseKNNLiveFilter(t *testing.T) {
	pts := randPoints(150, 3, 11)
	rows := make([][]float64, len(pts))
	var compact [][]float64
	compactID := make([]int, len(pts))
	dead := func(id int) bool { return id%5 == 2 || id%7 == 0 }
	for id, p := range pts {
		if dead(id) {
			continue // a nil row panics if the oracle measures it
		}
		rows[id] = p
		compactID[id] = len(compact)
		compact = append(compact, p)
	}
	live := func(id int) bool { return !dead(id) }
	truth, err := New(compact, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	dist := vecmath.KernelFor(vecmath.Euclidean{})
	toCompact := func(ids []int) []int {
		out := make([]int, len(ids))
		for i, id := range ids {
			if dead(id) {
				t.Fatalf("oracle returned tombstoned ID %d", id)
			}
			out[i] = compactID[id]
		}
		return out
	}
	for _, k := range []int{1, 3, 7} {
		for qid := 1; qid < len(pts); qid += 9 {
			if dead(qid) {
				continue
			}
			want, err := truth.RkNNByID(compactID[qid], k)
			if err != nil {
				t.Fatal(err)
			}
			if got := toCompact(ReverseKNN(rows, live, dist, rows[qid], qid, k)); !equalIDs(got, want) {
				t.Errorf("k=%d member %d: got %v, want %v", k, qid, got, want)
			}
		}
		q := []float64{0.5, 0.5, 0.5}
		want, err := truth.RkNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := toCompact(ReverseKNN(rows, live, dist, q, -1, k)); !equalIDs(got, want) {
			t.Errorf("k=%d external query: got %v, want %v", k, got, want)
		}
	}
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
