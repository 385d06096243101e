package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/covertree"
	"repro/internal/index"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

// tableBackends are the exact back-ends a table may be filled over, each
// under the delta overlay every engine reads through.
var tableBackends = map[string]func(pts [][]float64) (*index.Overlay, error){
	"covertree": func(pts [][]float64) (*index.Overlay, error) {
		ix, err := covertree.New(pts, vecmath.Euclidean{})
		if err != nil {
			return nil, err
		}
		return index.NewOverlay(ix), nil
	},
	"scan": func(pts [][]float64) (*index.Overlay, error) {
		ix, err := scan.New(pts, vecmath.Euclidean{})
		if err != nil {
			return nil, err
		}
		return index.NewOverlay(ix), nil
	},
}

// tiedPoints is a dataset full of exact ties: integer grid points, so that
// many pairs lie at the same distance, with every tenth row duplicated —
// k-th neighbor distances land exactly on query distances, the boundary the
// table and the count must settle alike.
func tiedPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64(rng.Intn(7))
		}
		pts = append(pts, p)
		if len(pts)%10 == 0 && len(pts) < n {
			pts = append(pts, append([]float64(nil), p...))
		}
	}
	return pts
}

// tableQueriers returns a plain-RDT reference and a variant over ix at the
// given scale (0: adaptive), the variant's table filled synchronously.
func tableQueriers(t *testing.T, ix Source, k int, scale float64, plus bool) (ref, tab *Querier) {
	t.Helper()
	build := func(plus bool) *Querier {
		var qr *Querier
		var err error
		if scale == 0 {
			qr, err = NewAdaptiveQuerier(ix, AdaptiveParams{K: k, Plus: plus})
		} else {
			qr, err = NewQuerier(ix, Params{K: k, T: scale, Plus: plus})
		}
		if err != nil {
			t.Fatal(err)
		}
		return qr
	}
	ref, tab = build(false), build(plus)
	if err := tab.fillTable(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ref, tab
}

// tableDecided is the Stats of every table-decided query: no scan, no ω, no
// witness or refinement work.
var tableDecided = Stats{Omega: math.Inf(1), DecidedByTable: true}

// subsetOf reports whether the sorted IDs a are all in the sorted IDs b.
func subsetOf(a, b []int) bool {
	for _, id := range a {
		if _, ok := slices.BinarySearch(b, id); !ok {
			return false
		}
	}
	return true
}

// TestKDistTableIdentity pins that a table-decided query is the brute-force
// answer at every scale — on every exact back-end, for RDT and RDT+, fixed
// and adaptive scale, member and point queries, over data with duplicate
// rows and boundary ties — that plain RDT's answer on the same snapshot,
// which has no false positive, is a subset of it, and that it reports no
// scan, no ω and no witness or refinement work.
func TestKDistTableIdentity(t *testing.T) {
	pts := tiedPoints(260, 3, 7)
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	// The data must put query distances exactly on k-th neighbor distances,
	// or nothing here tells kd[v] ≥ d(q,v) from kd[v] > d(q,v).
	kd4, err := truth.KNNDists(4)
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for q := range pts {
		for v := range pts {
			if v != q && (vecmath.Euclidean{}).Distance(pts[q], pts[v]) == kd4[v] {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no query distance falls on a k-th neighbor distance: the data has no boundary ties")
	}
	external := [][]float64{{3, 3, 3}, {0.5, 6, 2}, {1, 1, 1}, {7, -1, 3.5}}
	for bname, build := range tableBackends {
		ix, err := build(pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 10} {
			for _, scale := range []float64{0, 2, 4, 200} {
				for _, plus := range []bool{false, true} {
					ref, tab := tableQueriers(t, ix, k, scale, plus)
					check := func(what string, want, got *Result, exact []int) {
						t.Helper()
						if !equalIDs(got.IDs, exact) || !subsetOf(want.IDs, got.IDs) || got.Stats != tableDecided || want.Stats.DecidedByTable {
							t.Fatalf("%s k=%d t=%v plus=%v %s: table (%v, %+v), brute force %v, plain RDT (%v, %+v)",
								bname, k, scale, plus, what, got.IDs, got.Stats, exact, want.IDs, want.Stats)
						}
					}
					for qid := 0; qid < len(pts); qid += 13 {
						want, err := ref.ByID(qid)
						if err != nil {
							t.Fatal(err)
						}
						got, err := tab.ByID(qid)
						if err != nil {
							t.Fatal(err)
						}
						exact, err := truth.RkNNByID(qid, k)
						if err != nil {
							t.Fatal(err)
						}
						check("member query", want, got, exact)
					}
					for _, q := range external {
						want, err := ref.ByPoint(q)
						if err != nil {
							t.Fatal(err)
						}
						got, err := tab.ByPoint(q)
						if err != nil {
							t.Fatal(err)
						}
						exact, err := truth.RkNN(q, k)
						if err != nil {
							t.Fatal(err)
						}
						check("point query", want, got, exact)
					}
				}
			}
		}
	}
}

// TestKDistTableAfterDeletes pins the table against brute force after a
// seeded stream of inserts and deletes: every snapshot along the stream gets
// a table of its own, filled fresh, and each live row's entry is its k-th
// nearest distance among the live rows — deleted rows neither counted as
// neighbors nor given an entry — and a table-decided query at t = 200 is
// the brute-force answer over the live rows.
func TestKDistTableAfterDeletes(t *testing.T) {
	const k = 5
	for bname, build := range tableBackends {
		rng := rand.New(rand.NewSource(23))
		pts := tiedPoints(150, 2, 29)
		ov, err := build(pts)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			next := ov.Clone()
			for op := 0; op < 12; op++ {
				if rng.Intn(3) == 0 {
					next.Delete(rng.Intn(next.IDSpan()))
				} else if _, err := next.Insert([]float64{float64(rng.Intn(7)), rng.Float64() * 6}); err != nil {
					t.Fatal(err)
				}
			}
			ov = next
			if round%2 == 1 {
				folded, err := ov.Fold()
				if err != nil {
					t.Fatal(err)
				}
				ov = ov.Rebase(ov, folded)
			}

			var live []int
			var rows [][]float64
			for id := 0; id < ov.IDSpan(); id++ {
				if ov.Live(id) {
					live, rows = append(live, id), append(rows, ov.Point(id))
				}
			}
			truth, err := bruteforce.New(rows, vecmath.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := truth.KNNDists(k)
			if err != nil {
				t.Fatal(err)
			}
			qr, err := NewQuerier(ov, Params{K: k, T: 200, Plus: true})
			if err != nil {
				t.Fatal(err)
			}
			if qr.table.Load() != nil {
				t.Fatalf("%s round %d: a new snapshot's Querier starts with a table", bname, round)
			}
			if err := qr.fillTable(context.Background()); err != nil {
				t.Fatal(err)
			}
			kd := qr.table.Load().kd
			if len(kd) != ov.IDSpan() {
				t.Fatalf("%s round %d: table spans %d IDs, the snapshot %d", bname, round, len(kd), ov.IDSpan())
			}
			for i, id := range live {
				if kd[id] != want[i] {
					t.Fatalf("%s round %d: kd[%d] = %v, brute force %v", bname, round, id, kd[id], want[i])
				}
			}
			for i := 0; i < len(live); i += 17 {
				got, err := qr.ByID(live[i])
				if err != nil {
					t.Fatal(err)
				}
				exact, err := truth.RkNNByID(i, k)
				if err != nil {
					t.Fatal(err)
				}
				for j := range exact {
					exact[j] = live[exact[j]]
				}
				if !got.Stats.DecidedByTable || !equalIDs(got.IDs, exact) {
					t.Fatalf("%s round %d: member %d = %v (%+v), brute force %v", bname, round, live[i], got.IDs, got.Stats, exact)
				}
			}
		}
	}
}

// TestKDistTableFewerThanK pins that a row with fewer than k other live
// members gets +Inf, so a table accepts it as verify's count does.
func TestKDistTableFewerThanK(t *testing.T) {
	pts := [][]float64{{0}, {1}, {1}, {3}, {7}}
	ov, err := tableBackends["covertree"](pts)
	if err != nil {
		t.Fatal(err)
	}
	ov.Delete(3)
	kd, err := fillKDist(context.Background(), ov, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 2, 4} {
		if !math.IsInf(kd[id], 1) {
			t.Errorf("kd[%d] = %v with 3 other live rows and k = 4, want +Inf", id, kd[id])
		}
	}
	qr, err := NewQuerier(ov, Params{K: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := qr.ByID(0)
	qr.fillTable(context.Background())
	if got, _ := qr.ByID(0); !equalIDs(got.IDs, want.IDs) || !got.Stats.DecidedByTable {
		t.Errorf("table answer %v (%+v), Algorithm 1 %v", got.IDs, got.Stats, want.IDs)
	}
}

// gatedSource holds every cursor it opens until the gate opens, and reports
// the first one on entered: a fill over it is running, and stays running, for
// as long as the test wants.
type gatedSource struct {
	*index.Overlay
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *gatedSource) NewCursor(q []float64, skipID int) index.Cursor {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.Overlay.NewCursor(q, skipID)
}

func newGated(t *testing.T) *gatedSource {
	ix, err := tableBackends["scan"](randPoints(200, 4, 41))
	if err != nil {
		t.Fatal(err)
	}
	return &gatedSource{Overlay: ix, gate: make(chan struct{}), entered: make(chan struct{})}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitFills returns once none of g's fills runs, without cancelling any: a
// fill that started has then published its table or been cancelled.
func waitFills(g *FillGroup) { g.wg.Wait() }

// TestKDistTableTrigger pins when Engines fills: not before a rank has served
// fillTrigger queries — n/8 under plain RDT, at least plusFloor under RDT+ —
// once when it has, and never for a Querier fetched without counting.
func TestKDistTableTrigger(t *testing.T) {
	ix, err := tableBackends["covertree"](randPoints(300, 4, 43))
	if err != nil {
		t.Fatal(err)
	}
	for _, plus := range []bool{false, true} {
		build := func(k int) (*Querier, error) { return NewQuerier(ix, Params{K: k, T: 4, Plus: plus}) }
		trigger := 300 / 8
		if plus {
			trigger = plusFloor
		}
		var g FillGroup
		e := NewEngines(build, &g)
		for i := 0; i < 3*trigger; i++ {
			if _, err := e.Querier(3); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < trigger-1; i++ {
			if _, err := e.Serve(3); err != nil {
				t.Fatal(err)
			}
		}
		waitFills(&g)
		qr, _ := e.Querier(3)
		if qr.table.Load() != nil {
			t.Fatalf("plus=%v: a table after %d served queries and %d uncounted ones, trigger %d", plus, trigger-1, 3*trigger, trigger)
		}
		e.Serve(3)
		waitFills(&g)
		kd := qr.table.Load()
		if kd == nil {
			t.Fatalf("plus=%v: no table after %d served queries", plus, trigger)
		}
		for i := 0; i < 2*trigger; i++ {
			e.Serve(3)
		}
		waitFills(&g)
		if qr.table.Load() != kd {
			t.Fatalf("plus=%v: a filled rank filled again", plus)
		}
		if other, _ := e.Querier(4); other.table.Load() != nil {
			t.Fatalf("plus=%v: another rank shares the filled rank's table", plus)
		}
		res, err := qr.ByID(5)
		if err != nil || !res.Stats.DecidedByTable {
			t.Fatalf("plus=%v: query after the fill: %+v, %v", plus, res, err)
		}
		g.Close()
	}
}

// TestKDistTableOneFillAtATime pins that a FillGroup runs one fill at a time:
// a rank that reaches its trigger while another rank's fill runs starts none,
// keeps its count, and starts its own on its first query after.
func TestKDistTableOneFillAtATime(t *testing.T) {
	src := newGated(t)
	build := func(k int) (*Querier, error) { return NewQuerier(src, Params{K: k, T: 4}) }
	var g FillGroup
	defer g.Close()
	e := NewEngines(build, &g)
	trigger := src.Len() / 8
	for i := 0; i < trigger; i++ {
		e.Serve(2)
	}
	<-src.entered
	for i := 0; i < 2*trigger; i++ {
		e.Serve(3)
	}
	close(src.gate)
	waitFills(&g)
	two, _ := e.Querier(2)
	three, _ := e.Querier(3)
	if two.table.Load() == nil || three.table.Load() != nil {
		t.Fatalf("with rank 2's fill running, rank 3 reached its trigger: tables %v, %v; want rank 2's only",
			two.table.Load() != nil, three.table.Load() != nil)
	}
	e.Serve(3)
	waitFills(&g)
	if three.table.Load() == nil {
		t.Fatal("rank 3 did not fill on its first query after rank 2's fill")
	}
}

// TestKDistTableStopCancels pins that Stop cancels a running fill — the
// snapshot replaced by a write — which then publishes nothing, and that a
// stopped memo starts no fill.
func TestKDistTableStopCancels(t *testing.T) {
	src := newGated(t)
	build := func(k int) (*Querier, error) { return NewQuerier(src, Params{K: k, T: 4}) }
	var g FillGroup
	defer g.Close()
	e := NewEngines(build, &g)
	trigger := src.Len() / 8
	var qr *Querier
	for i := 0; i < trigger; i++ {
		qr, _ = e.Serve(2)
	}
	<-src.entered
	e.Stop()
	close(src.gate)
	waitFills(&g)
	if qr.table.Load() != nil {
		t.Fatal("a cancelled fill published its table")
	}
	for i := 0; i < 2*trigger; i++ {
		e.Serve(5)
	}
	waitFills(&g)
	if five, _ := e.Querier(5); five.table.Load() != nil {
		t.Fatal("a stopped memo filled a table")
	}
}

// TestKDistTableCloseWaits pins that FillGroup.Close cancels the group's
// fills, returns only once none runs — no fill goroutine outlives the engine
// — and that no fill starts on any memo of a closed group.
func TestKDistTableCloseWaits(t *testing.T) {
	src := newGated(t)
	build := func(k int) (*Querier, error) { return NewQuerier(src, Params{K: k, T: 4}) }
	var g FillGroup
	e := NewEngines(build, &g)
	trigger := src.Len() / 8
	for i := 0; i < trigger; i++ {
		e.Serve(2)
	}
	<-src.entered
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a fill was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(src.gate)
	<-closed
	if two, _ := e.Querier(2); two.table.Load() != nil {
		t.Fatal("a fill cancelled by Close published its table")
	}
	later := NewEngines(build, &g)
	for i := 0; i < 2*trigger; i++ {
		later.Serve(2)
		e.Serve(3)
	}
	waitFills(&g)
	l2, _ := later.Querier(2)
	e3, _ := e.Querier(3)
	if l2.table.Load() != nil || e3.table.Load() != nil {
		t.Fatal("a closed group filled a table")
	}
}

// TestTableWalkAgainstBruteForce is a seeded property test of the table
// walk: on data with duplicate and tied rows, a filled Querier at t = 1 and
// t = 4 answers sampled member and external queries as brute force over the
// live rows does, ID for ID. It runs on the bare cover tree and scan holding
// tombstones, and on an overlay over each holding memtable rows and
// tombstones, before and after Fold. A member query at a deleted ID keeps
// failing with ErrDeletedID.
func TestTableWalkAgainstBruteForce(t *testing.T) {
	const k = 4
	external := [][]float64{{3, 3, 3}, {0, 0, 0}, {2.5, 4, 1}, {6, 6, 6}, {1, 5, 2}}
	misses := 0 // answers Algorithm 1 at t = 1 leaves short: what the walk must not
	check := func(what string, src index.Dynamic) {
		t.Helper()
		var live []int
		var rows [][]float64
		dead := -1
		for id := 0; id < src.IDSpan(); id++ {
			if src.Live(id) {
				live, rows = append(live, id), append(rows, src.Point(id))
			} else {
				dead = id
			}
		}
		truth, err := bruteforce.New(rows, vecmath.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		toIDs := func(exact []int) []int {
			for j := range exact {
				exact[j] = live[exact[j]]
			}
			return exact
		}
		for _, scale := range []float64{1, 4} {
			qr, err := NewQuerier(src, Params{K: k, T: scale, Plus: true})
			if err != nil {
				t.Fatal(err)
			}
			before := make(map[int][]int)
			for i := 0; i < len(live); i += 7 {
				res, err := qr.ByID(live[i])
				if err != nil {
					t.Fatal(err)
				}
				before[i] = res.IDs
			}
			if err := qr.fillTable(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(live); i += 7 {
				got, err := qr.ByID(live[i])
				if err != nil {
					t.Fatal(err)
				}
				exact, err := truth.RkNNByID(i, k)
				if err != nil {
					t.Fatal(err)
				}
				if exact = toIDs(exact); !equalIDs(got.IDs, exact) || got.Stats != tableDecided {
					t.Fatalf("%s t=%v: member %d = %v (%+v), brute force %v", what, scale, live[i], got.IDs, got.Stats, exact)
				}
				if scale == 1 && !equalIDs(before[i], exact) {
					misses++
				}
			}
			for _, q := range external {
				got, err := qr.ByPoint(q)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := truth.RkNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if exact = toIDs(exact); !equalIDs(got.IDs, exact) {
					t.Fatalf("%s t=%v: point %v = %v, brute force %v", what, scale, q, got.IDs, exact)
				}
			}
			if dead >= 0 {
				if _, err := qr.ByID(dead); !errors.Is(err, ErrDeletedID) {
					t.Fatalf("%s t=%v: member query at deleted %d: %v, want ErrDeletedID", what, scale, dead, err)
				}
			}
		}
	}
	for bname, build := range tableBackends {
		rng := rand.New(rand.NewSource(61))
		pts := tiedPoints(240, 3, 67)
		extra := tiedPoints(40, 3, 71)
		churn := func(ov *index.Overlay) *index.Overlay {
			next := ov.Clone()
			for _, p := range extra[:20] {
				if _, err := next.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			extra = extra[20:]
			for i := 0; i < 15; i++ { // base- and memtable-region IDs alike
				next.Delete(rng.Intn(next.IDSpan()))
			}
			return next
		}

		bareOv, err := build(pts)
		if err != nil {
			t.Fatal(err)
		}
		bare := bareOv.Base().(index.Dynamic)
		for i := 0; i < 15; i++ {
			bare.Delete(rng.Intn(bare.IDSpan()))
		}
		check(bname+" bare", bare)

		ov, err := build(pts)
		if err != nil {
			t.Fatal(err)
		}
		dirty := churn(ov)
		check(bname+" overlay", dirty)
		folded, err := dirty.Fold()
		if err != nil {
			t.Fatal(err)
		}
		clean := dirty.Rebase(dirty, folded)
		check(bname+" folded", clean)
		check(bname+" folded overlay", churn(clean))
	}
	if misses == 0 {
		t.Fatal("Algorithm 1 at t = 1 missed nothing on this data: the test shows nothing about other scales")
	}
}
