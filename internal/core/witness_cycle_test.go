package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/covertree"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

// pairwiseRun is Algorithm 1 with the witness cycle in its plain form: one
// distance, through the Metric interface, for every pair of a retrieved point
// and a filter member, every counter kept exact. Querier.run computes only
// the distances that can still move a counter across k, several to a kernel
// call; this form stays as the reference it is checked against. Refinement is
// candidate by candidate (checkVerifyForms pins the batched hand-off to it).
func pairwiseRun(qr *Querier, q []float64, skipID int) *Result {
	k := qr.params.K
	scale := qr.newScale()
	n := qr.ix.Len()
	if skipID >= 0 {
		n--
	}
	stats := Stats{Omega: math.Inf(1)}
	omega := math.Inf(1)
	var filter []candidate
	cursor := qr.ix.NewCursor(q, skipID)
	s := 0
	for {
		nb, ok := cursor.Next()
		if !ok {
			break
		}
		s++
		t := scale.observe(s, nb.Dist)
		v := candidate{id: nb.ID, point: qr.ix.Point(nb.ID), dq: nb.Dist}
		for i := range filter {
			x := &filter[i]
			dvx := qr.metric.Distance(v.point, x.point)
			stats.DistanceComps++
			if dvx < x.dq {
				x.w++
			}
			if dvx < v.dq {
				v.w++
			}
			if !x.accepted && x.w < k && v.dq >= 2*x.dq {
				x.accepted = true
				stats.LazyAccepts++
			}
		}
		if qr.params.Plus && s > k && v.w >= k {
			stats.Excluded++
		} else {
			filter = append(filter, v)
		}
		if s > k && nb.Dist > 0 {
			if denom := math.Pow(float64(s)/float64(k), 1/t) - 1; denom > 0 {
				omega = math.Min(omega, nb.Dist/denom)
			}
		}
		if nb.Dist > omega {
			stats.TerminatedByOmega = true
			break
		}
		sMax := n
		if rankCap := math.Pow(2, t) * float64(k); rankCap < float64(n) {
			sMax = int(rankCap)
		}
		if s >= sMax {
			break
		}
	}
	stats.ScanDepth, stats.FilterSize, stats.Omega = s, len(filter), omega
	var ids []int
	for i := range filter {
		x := &filter[i]
		switch {
		case x.accepted:
			ids = append(ids, x.id)
		case x.w >= k:
			stats.LazyRejects++
		default:
			stats.Verified++
			if qr.verify(x) {
				stats.VerifiedHits++
				ids = append(ids, x.id)
			}
		}
	}
	stats.LazyRejects += stats.Excluded
	sort.Ints(ids)
	return &Result{IDs: ids, Stats: stats}
}

// checkAgainstPairwise answers one query both ways and requires the same
// IDs and the same Stats, DistanceComps apart, which may only fall. It
// returns the two DistanceComps.
func checkAgainstPairwise(t *testing.T, what string, qr *Querier, q []float64, skipID int) (got, ref int64) {
	t.Helper()
	res := qr.run(context.Background(), q, skipID)
	want := pairwiseRun(qr, q, skipID)
	if !reflect.DeepEqual(res.IDs, want.IDs) {
		t.Fatalf("%s: IDs %v, pairwise reference %v", what, res.IDs, want.IDs)
	}
	got, ref = res.Stats.DistanceComps, want.Stats.DistanceComps
	if got > ref {
		t.Fatalf("%s: %d distances computed, more than the %d pairs", what, got, ref)
	}
	res.Stats.DistanceComps, want.Stats.DistanceComps = 0, 0
	if res.Stats != want.Stats {
		t.Fatalf("%s: Stats %+v, pairwise reference %+v", what, res.Stats, want.Stats)
	}
	return got, ref
}

// witnessVariants builds the three queriers of one (index, k, t) cell; the
// adaptive one takes t as its ceiling.
func witnessVariants(t *testing.T, ix index.Index, k int, scale float64) map[string]*Querier {
	t.Helper()
	rdt, err1 := NewQuerier(ix, Params{K: k, T: scale})
	plus, err2 := NewQuerier(ix, Params{K: k, T: scale, Plus: true})
	adaptive, err3 := NewAdaptiveQuerier(ix, AdaptiveParams{K: k, MaxT: scale, Plus: true})
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*Querier{"rdt": rdt, "rdt+": plus, "adaptive": adaptive}
}

var witnessBackends = map[string]func([][]float64, vecmath.Metric) (index.Index, error){
	"scan":      func(p [][]float64, m vecmath.Metric) (index.Index, error) { return scan.New(p, m) },
	"covertree": func(p [][]float64, m vecmath.Metric) (index.Index, error) { return covertree.New(p, m) },
}

// TestWitnessCycleMatchesPairwise compares Querier.run with the pairwise
// reference over uniform, clustered and duplicate-heavy data, every
// algorithm variant, ranks and scales from starved to saturated, both
// back-ends the benchmark serves from and two metrics, for member and
// external queries — and requires the saving to be real where RDT+ keeps a
// filter of mostly settled members on manifold data.
func TestWitnessCycleMatchesPairwise(t *testing.T) {
	duplicates := dataset.Uniform("duplicates", 240, 3, 13).Points
	for _, p := range duplicates {
		for j := range p {
			p[j] = math.Floor(p[j] * 3) // 27 distinct points: ties everywhere
		}
	}
	datasets := map[string][][]float64{
		"uniform":    dataset.Uniform("uniform", 300, 5, 11).Points,
		"clustered":  dataset.GaussianMixture("clustered", 300, 6, 5, 0.03, 12).Points,
		"duplicates": duplicates,
	}
	metrics := []vecmath.Metric{vecmath.Euclidean{}, vecmath.Manhattan{}}
	rng := rand.New(rand.NewSource(17))
	for dname, pts := range datasets {
		external := make([]float64, len(pts[0]))
		for j := range external {
			external[j] = rng.Float64()
		}
		for _, m := range metrics {
			for bname, build := range witnessBackends {
				ix, err := build(pts, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 3, 10} {
					for _, scale := range []float64{2, 6, 64} {
						for vname, qr := range witnessVariants(t, ix, k, scale) {
							cell := fmt.Sprintf("%s/%s/%s/%s k=%d t=%g", dname, m.Name(), bname, vname, k, scale)
							for i := 0; i < 12; i++ {
								qid := rng.Intn(len(pts))
								checkAgainstPairwise(t, fmt.Sprintf("%s q=%d", cell, qid), qr, pts[qid], qid)
							}
							checkAgainstPairwise(t, cell+" external", qr, external, -1)
						}
					}
				}
			}
		}
	}

	pts := dataset.Manifold("manifold", 1500, 4, 32, 0.01, 14).Points
	qr, err := NewQuerier(newScan(t, pts), Params{K: 10, T: 6, Plus: true})
	if err != nil {
		t.Fatal(err)
	}
	var got, ref int64
	for qid := 0; qid < 40; qid++ {
		g, r := checkAgainstPairwise(t, fmt.Sprintf("manifold q=%d", qid), qr, pts[qid], qid)
		got, ref = got+g, ref+r
	}
	if got >= ref {
		t.Fatalf("RDT+ on manifold data computed %d distances for %d pairs, want strictly fewer", got, ref)
	}
	t.Logf("RDT+ on manifold data: %d distances for %d pairs (%.2f×)", got, ref, float64(got)/float64(ref))
}

// checkWitnessCycle decodes data into a rank, a scale, a variant and a small
// dataset on a coarse integer grid — duplicates and exact distance ties
// everywhere, so counters sit on k as often as beside it — and checks every
// member query and one external query against the pairwise reference.
func checkWitnessCycle(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 8 {
		return
	}
	k := int(data[0]%6) + 1
	scale := 1 + float64(data[1]%24)/2
	dim := int(data[2]%3) + 1
	var m vecmath.Metric = vecmath.Euclidean{}
	if data[3]%2 == 1 {
		m = vecmath.Manhattan{}
	}
	coords := data[4:]
	n := min(len(coords)/dim, 48)
	if n < 4 {
		return
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64(coords[i*dim+j] % 7)
		}
		pts[i] = p
	}
	external := make([]float64, dim)
	for j := range external {
		external[j] = float64(data[j]%7) + 0.5
	}
	for bname, build := range witnessBackends {
		ix, err := build(pts, m)
		if err != nil {
			t.Fatalf("%s: build: %v", bname, err)
		}
		for vname, qr := range witnessVariants(t, ix, k, scale) {
			cell := fmt.Sprintf("%s/%s/%s k=%d t=%g", m.Name(), bname, vname, k, scale)
			for qid := range pts {
				checkAgainstPairwise(t, fmt.Sprintf("%s q=%d", cell, qid), qr, pts[qid], qid)
			}
			checkAgainstPairwise(t, cell+" external", qr, external, -1)
		}
	}
}

// FuzzWitnessCycle fuzzes checkWitnessCycle; plain `go test` runs the seeds.
func FuzzWitnessCycle(f *testing.F) {
	f.Add([]byte{2, 7, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 1, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{5, 11, 2, 1, 9, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6})
	f.Fuzz(checkWitnessCycle)
}

// TestWitnessCycleOnTies drives checkWitnessCycle over random tie-heavy
// datasets, so the fuzz target's property runs on every test run.
func TestWitnessCycleOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	for trial := 0; trial < 100; trial++ {
		data := make([]byte, 8+rng.Intn(140))
		rng.Read(data)
		checkWitnessCycle(t, data)
	}
}

// TestRunAllocationsAndPoolHygiene pins a member query's allocations on a
// scan index and on a cover tree — what is left once the query closes its
// cursor and the back-end recycles it: the boxed result ByID returns and its
// ID list; the fixed scale strategy is the Querier's own — and checks what
// the pools are left holding: a scratch goes back holding no point, and a
// closed cursor, which is the very object its pool now holds, references no
// index, query or row anywhere in its memory. A pooled object must pin no
// dataset.
func TestRunAllocationsAndPoolHygiene(t *testing.T) {
	pts := randPoints(2000, 8, 3)
	for _, bname := range []string{"scan", "covertree"} {
		ix, err := witnessBackends[bname](pts, vecmath.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		qr, err := NewQuerier(ix, Params{K: 10, T: 4, Plus: true})
		if err != nil {
			t.Fatal(err)
		}
		query := func() {
			if _, err := qr.ByID(7); err != nil {
				t.Fatal(err)
			}
		}
		query() // grow the pooled scratch and cursor
		if got := testing.AllocsPerRun(100, query); got > 2 && !raceEnabled {
			t.Errorf("%s: %v allocations a query, want at most 2", bname, got)
		}

		cur := ix.NewCursor(pts[7], 7)
		for i := 0; i < 200; i++ {
			cur.Next()
		}
		if bname == "covertree" && pinnedBy(reflect.ValueOf(cur).Elem()) == "" {
			t.Fatal("the walk finds nothing in a cover-tree cursor open mid-stream: it cannot vouch for a closed one")
		}
		cur.Close()
		if what := pinnedBy(reflect.ValueOf(cur).Elem()); what != "" {
			t.Errorf("%s: closed cursor still holds %s", bname, what)
		}
	}

	// sync.Pool may drop a Put (it does at random under the race detector),
	// so look until a used scratch comes back.
	for attempt := 0; attempt < 100; attempt++ {
		sc := scratchPool.Get().(*scratch)
		if cap(sc.filter) == 0 {
			qr, _ := NewQuerier(newScan(t, pts), Params{K: 10, T: 4})
			if _, err := qr.ByID(attempt); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if len(sc.filter)+len(sc.open)+len(sc.openRows)+len(sc.settledRows) != 0 {
			t.Fatalf("pooled scratch not emptied: %d/%d/%d/%d", len(sc.filter), len(sc.open), len(sc.openRows), len(sc.settledRows))
		}
		for _, x := range sc.filter[:cap(sc.filter)] {
			if x.point != nil {
				t.Fatal("pooled filter backing still references a point")
			}
		}
		for _, rows := range [][][]float64{sc.openRows[:cap(sc.openRows)], sc.settledRows[:cap(sc.settledRows)]} {
			for _, r := range rows {
				if r != nil {
					t.Fatal("pooled row scratch still references a point")
				}
			}
		}
		return
	}
	t.Fatal("no used scratch ever came back from the pool")
}

// pinnedBy walks everything v reaches — every slice over its full capacity —
// and names the first thing found that a pooled cursor may not hold: any
// reference other than to its own heaps (package pqueue) and their ordering
// functions, or a []float64, which is a query or a dataset row. It returns ""
// when v holds plain numbers only. v may be unexported state of another
// package: the walk only looks.
func pinnedBy(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return ""
		}
		if v.Type().Elem().PkgPath() != "repro/internal/pqueue" {
			return "a " + v.Type().String()
		}
		return pinnedBy(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if what := pinnedBy(v.Field(i)); what != "" {
				return what
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			if v.Type().Elem().Kind() == reflect.Float64 && !v.IsNil() {
				return "a []float64"
			}
			v = v.Slice(0, v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			if what := pinnedBy(v.Index(i)); what != "" {
				return what
			}
		}
	case reflect.Map, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			return "a " + v.Type().String()
		}
	}
	return ""
}
