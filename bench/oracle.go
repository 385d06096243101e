package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	repro "repro"
	"repro/internal/bruteforce"
	"repro/internal/harness"
	"repro/internal/vecmath"
)

// oracle answers RkNN exactly from the kNN-distance table: x is a reverse
// neighbour of q iff d(q,x) <= d_k(x), where d_k(x) is taken over every
// other live point (the shape of harness.NewTruth, extended to external
// query points and to ID spaces with holes).
type oracle struct {
	ids  []int // global ID of row i
	pts  [][]float64
	kd   []float64 // d_k of row i
	dist vecmath.DistanceFunc
}

// spotRows is how many table rows are recomputed by exhaustive scan, so the
// table does not rest on the tree that built it.
const spotRows = 32

// newOracle builds the table with one forward kNN per row on an exact
// cover tree, on every core; it is never part of a timed section.
func newOracle(ids []int, pts [][]float64, k int) (*oracle, error) {
	metric := vecmath.Euclidean{}
	tree, err := harness.BuildBackend("covertree", pts, metric)
	if err != nil {
		return nil, fmt.Errorf("oracle index: %w", err)
	}
	o := &oracle{ids: ids, pts: pts, kd: make([]float64, len(pts)), dist: vecmath.KernelFor(metric)}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(pts); i += workers {
				o.kd[i] = math.Inf(1) // fewer than k other points: every query has this one
				if nn := tree.KNN(pts[i], k, i); len(nn) == k {
					o.kd[i] = nn[k-1].Dist
				}
			}
		}()
	}
	wg.Wait()
	for s := 0; s < spotRows && s < len(pts); s++ {
		i := s * len(pts) / min(spotRows, len(pts))
		d := make([]float64, 0, len(pts)-1)
		for j, p := range pts {
			if j != i {
				d = append(d, o.dist(pts[i], p))
			}
		}
		sort.Float64s(d)
		if len(d) >= k && d[k-1] != o.kd[i] {
			return nil, fmt.Errorf("oracle table row %d: tree d_k %v, exhaustive %v", i, o.kd[i], d[k-1])
		}
	}
	return o, nil
}

// denseIDs is the ID column of a dataset nothing was deleted from.
func denseIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (o *oracle) answer(q query) []int {
	var out []int
	for i, p := range o.pts {
		if o.ids[i] != q.id && o.dist(q.point, p) <= o.kd[i] {
			out = append(out, o.ids[i])
		}
	}
	return out
}

// tally counts the operations the checks attempt and the ones that fail,
// so that failed_share has every operation in its denominator.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) failf(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// answerAll sends every query through c. A query that errors counts as
// failed and leaves a nil answer.
func (t *tally) answerAll(c client, qs []query, k int) [][]int {
	got := make([][]int, len(qs))
	for i, q := range qs {
		t.attempted++
		ids, err := c.rknn(q, k)
		if err != nil {
			t.failf("check query %d: %v", i, err)
			continue
		}
		got[i] = ids
	}
	return got
}

// score is check one: mean recall and precision of got against the oracle.
// RDT+ at a non-saturating t is exact on neither side, so both are
// reported, never assumed.
func (o *oracle) score(qs []query, got [][]int) (recall, precision float64) {
	for i, q := range qs {
		want := o.answer(q)
		recall += bruteforce.Recall(got[i], want)
		precision += bruteforce.Precision(got[i], want)
	}
	n := float64(len(qs))
	return recall / n, precision / n
}

// identical is check two: two topologies over the same data must answer
// ID for ID — the scatter path is transport-blind and a single shard is the
// engine itself, so this holds at any t. Each differing answer is one
// failed operation.
func (t *tally) identical(what string, got, want [][]int) {
	for i := range want {
		t.attempted++
		if !slices.Equal(got[i], want[i]) {
			t.failf("%s: query %d answered %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// liveSet is the dataset serve-mixed must hold after its window: the base
// points minus every acknowledged delete plus every acknowledged insert.
func liveSet(in *inputs, clients []*loadClient) (ids []int, pts [][]float64) {
	gone := make(map[int]bool)
	for _, lc := range clients {
		for _, id := range lc.deleted {
			gone[id] = true
		}
	}
	for id, p := range in.points {
		if !gone[id] {
			ids = append(ids, id)
			pts = append(pts, p)
		}
	}
	for _, lc := range clients {
		for _, a := range lc.inserted {
			ids = append(ids, a.id)
			pts = append(pts, a.point)
		}
	}
	return ids, pts
}

// writesLanded counts lost writes: every acknowledged insert must be
// readable under its ID with its coordinates, every acknowledged delete
// must be gone, and the live count must add up.
func (t *tally) writesLanded(eng *repro.DurableSearcher, base int, clients []*loadClient) {
	want := base
	for _, lc := range clients {
		for _, a := range lc.inserted {
			t.attempted++
			if got := eng.MemberPoints(a.id)[0]; !slices.Equal(got, a.point) {
				t.failf("insert acknowledged as %d is not stored", a.id)
			}
		}
		for _, id := range lc.deleted {
			t.attempted++
			if eng.MemberPoints(id)[0] != nil {
				t.failf("delete of %d acknowledged but the point is live", id)
			}
		}
		want += len(lc.inserted) - len(lc.deleted)
	}
	t.attempted++
	if got := eng.Len(); got != want {
		t.failf("engine holds %d points, acknowledged writes add up to %d", got, want)
	}
}

// reopened is check three: close the store, recover it with repro.Open and
// require the same length and the same answers. This is process-restart
// durability only — the OS page cache is not dropped, so it says nothing
// about power loss.
func (t *tally) reopened(sys *system, qs []query, k int, before [][]int) {
	wantLen := sys.durable.Len()
	t.attempted++
	if err := sys.durable.Close(); err != nil {
		t.failf("closing store: %v", err)
		return
	}
	re, err := repro.Open(sys.dir, repro.WithWALSync(1))
	if err != nil {
		t.failf("reopening store: %v", err)
		return
	}
	defer re.Close()
	if re.Len() != wantLen {
		t.failf("reopened store holds %d points, had %d", re.Len(), wantLen)
	}
	t.identical("reopened store", t.answerAll(libClient{re}, qs, k), before)
}
