package repro

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bruteforce"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/persist"
	"repro/internal/vecmath"
)

// This file pins the fault contract of the durable write path: what a
// caller sees when the write-ahead log fails underneath an engine. Every
// fault must end in a correct answer, a clean error, or a loudly refusing
// engine — never a silently wrong result (ROADMAP item 4c).

// breakStore makes every later append to st fail with os.ErrClosed by
// closing the log file underneath the store. persist deliberately exports
// no way to do this, so the file is reached by reflection.
func breakStore(t *testing.T, st *persist.Store) {
	t.Helper()
	f := reflect.ValueOf(st).Elem().FieldByName("wal").Elem().FieldByName("f")
	file := *(**os.File)(unsafe.Pointer(f.UnsafeAddr()))
	if err := file.Close(); err != nil {
		t.Fatalf("closing the log file underneath the store: %v", err)
	}
}

// memberPoint is the remote-safe single-point read: nil when id holds no
// live point.
func memberPoint(eng interface{ MemberPoints(ids ...int) [][]float64 }, id int) []float64 {
	return eng.MemberPoints(id)[0]
}

// refused asserts that a write was turned away by a store poisoned earlier:
// the error carries the original cause.
func refused(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, os.ErrClosed) {
		t.Errorf("%s on a poisoned store: err = %v, want the original cause (os.ErrClosed)", what, err)
	}
}

// TestDurableLogFailureContract breaks the log under a DurableSearcher and
// checks, for each kind of first failing write: the write reports an error
// but stays applied in memory and readable; every later write is refused
// un-applied with the original cause; Close turns the refusals into
// errClosed; and a restart recovers exactly the acknowledged prefix.
func TestDurableLogFailureContract(t *testing.T) {
	for _, first := range []string{"insert", "batch", "delete"} {
		t.Run(first, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(indextest.RandPoints(60, 3, 71), WithScale(100))
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDurable(dir, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range indextest.RandPoints(4, 3, 72) {
				if _, err := d.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			if ok, err := d.Delete(5); !ok || err != nil {
				t.Fatalf("Delete(5) = (%v, %v)", ok, err)
			}
			const ackSpan = 64
			ackDeleted := map[int]bool{5: true}

			breakStore(t, d.durable.Load().store)
			extra := indextest.RandPoints(6, 3, 73)
			span, deleted := ackSpan, map[int]bool{5: true}
			var cause error
			switch first {
			case "insert":
				_, cause = d.Insert(extra[0])
				span++
			case "batch":
				_, cause = d.InsertBatch(extra[:3])
				span += 3
			case "delete":
				var ok bool
				ok, cause = d.Delete(7)
				if ok {
					t.Error("unlogged delete reported success")
				}
				deleted[7] = true
			}
			if !errors.Is(cause, os.ErrClosed) {
				t.Fatalf("first failing %s: err = %v, want the log's write error", first, cause)
			}
			// Applied in memory, readable until restart.
			if got, want := d.Len(), span-len(deleted); got != want {
				t.Fatalf("Len after the unlogged %s = %d, want %d", first, got, want)
			}
			for i := ackSpan; i < span; i++ {
				if !reflect.DeepEqual(memberPoint(d, i), extra[i-ackSpan]) {
					t.Errorf("unlogged point %d not readable", i)
				}
			}
			if first == "delete" && memberPoint(d, 7) != nil {
				t.Error("unlogged delete not applied in memory")
			}
			verifyAgainstOracle(t, d, span, deleted)

			// Every later write is refused, un-applied, with the cause.
			_, err = d.Insert(extra[3])
			refused(t, "Insert", err)
			ids, err := d.InsertBatch(extra[3:])
			refused(t, "InsertBatch", err)
			if ids != nil {
				t.Errorf("refused batch returned ids %v", ids)
			}
			ok, err := d.Delete(9)
			refused(t, "Delete", err)
			if ok || memberPoint(d, 9) == nil {
				t.Error("refused delete was applied")
			}
			refused(t, "Snapshot", d.Snapshot())
			if got, want := d.Len(), span-len(deleted); got != want {
				t.Errorf("Len after refused writes = %d, want %d", got, want)
			}

			d.Close() // reports the broken file; the store is closed regardless
			if _, err := d.Insert(extra[3]); !errors.Is(err, errClosed) {
				t.Errorf("Insert after Close: err = %v, want errClosed", err)
			}
			if _, err := d.Delete(9); !errors.Is(err, errClosed) {
				t.Errorf("Delete after Close: err = %v, want errClosed", err)
			}

			re, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after the fault: %v", err)
			}
			defer re.Close()
			if re.IDSpan() != ackSpan || re.Len() != ackSpan-len(ackDeleted) {
				t.Errorf("recovered span %d, len %d; want the acknowledged prefix (%d, %d)",
					re.IDSpan(), re.Len(), ackSpan, ackSpan-len(ackDeleted))
			}
			if first == "delete" && memberPoint(re, 7) == nil {
				t.Error("unlogged delete survived the restart")
			}
			verifyAgainstOracle(t, re, ackSpan, ackDeleted)
		})
	}
}

// TestDurableShardedLogFailureContract breaks one shard's log under a
// durable ShardedSearcher. The first write reaching that shard fails but
// stays applied (inserts keep their global IDs); afterwards writes whose
// shards are healthy keep landing, a write whose only shard is the poisoned
// one is refused with the shard map rolled back, a batch touching it is
// rejected before any ID is assigned, and Close turns everything into
// errClosed.
func TestDurableShardedLogFailureContract(t *testing.T) {
	const S = 3
	for _, first := range []string{"insert", "batch", "delete"} {
		t.Run(first, func(t *testing.T) {
			dir := t.TempDir()
			ss, err := NewSharded(indextest.RandPoints(90, 3, 81), S, WithScale(100))
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDurableSharded(dir, ss)
			if err != nil {
				t.Fatal(err)
			}
			extra := indextest.RandPoints(40, 3, 82)
			span, deleted := 90, map[int]bool{}
			insert := func() []float64 { p := extra[0]; extra = extra[1:]; return p }

			var bad int
			var cause error
			switch first {
			case "insert":
				bad = index.ShardOf(span, S)
				breakStore(t, d.slots[bad].eng.Load().durable.Load().store)
				p := insert()
				var g int
				g, cause = d.Insert(p)
				if g != span || !reflect.DeepEqual(memberPoint(d, g), p) {
					t.Errorf("unlogged insert: id %d (want %d), readable %v", g, span, memberPoint(d, g) != nil)
				}
				span++
			case "batch":
				bad = index.ShardOf(span+1, S)
				breakStore(t, d.slots[bad].eng.Load().durable.Load().store)
				batch := [][]float64{insert(), insert(), insert(), insert()}
				var ids []int
				ids, cause = d.InsertBatch(batch)
				if len(ids) != len(batch) {
					t.Fatalf("unlogged batch returned ids %v, want all %d", ids, len(batch))
				}
				for i, g := range ids {
					if g != span+i || !reflect.DeepEqual(memberPoint(d, g), batch[i]) {
						t.Errorf("batch member %d: id %d (want %d), readable %v", i, g, span+i, memberPoint(d, g) != nil)
					}
				}
				span += len(batch)
			case "delete":
				bad = index.ShardOf(7, S)
				breakStore(t, d.slots[bad].eng.Load().durable.Load().store)
				var ok bool
				ok, cause = d.Delete(7)
				if ok || memberPoint(d, 7) != nil {
					t.Errorf("unlogged delete: reported %v, still readable %v", ok, memberPoint(d, 7) != nil)
				}
				deleted[7] = true
			}
			if !errors.Is(cause, os.ErrClosed) {
				t.Fatalf("first failing %s: err = %v, want the log's write error", first, cause)
			}
			if d.IDSpan() != span || d.Len() != span-len(deleted) {
				t.Fatalf("after the unlogged %s: span %d len %d, want %d %d", first, d.IDSpan(), d.Len(), span, span-len(deleted))
			}

			// Healthy shards keep taking writes until an ID hashes to the
			// poisoned one; that write is refused and the map rolled back.
			healthy := 0
			for index.ShardOf(span, S) != bad {
				p := insert()
				g, err := d.Insert(p)
				if err != nil || g != span {
					t.Fatalf("insert on healthy shard %d = (%d, %v), want (%d, nil)", index.ShardOf(span, S), g, err, span)
				}
				span++
				healthy++
			}
			_, err = d.Insert(insert())
			refused(t, "Insert routed to the poisoned shard", err)
			ids, err := d.InsertBatch([][]float64{insert(), insert(), insert()})
			refused(t, "InsertBatch touching the poisoned shard", err)
			if ids != nil {
				t.Errorf("rejected batch returned ids %v", ids)
			}
			if d.IDSpan() != span || d.Len() != span-len(deleted) || memberPoint(d, span) != nil {
				t.Errorf("refused inserts moved the shard map: span %d len %d, want %d %d", d.IDSpan(), d.Len(), span, span-len(deleted))
			}
			for id := 10; id < 16; id++ {
				ok, err := d.Delete(id)
				if index.ShardOf(id, S) == bad {
					refused(t, "Delete on the poisoned shard", err)
					if ok || memberPoint(d, id) == nil {
						t.Errorf("refused delete of %d was applied", id)
					}
					continue
				}
				if !ok || err != nil {
					t.Errorf("Delete(%d) on a healthy shard = (%v, %v)", id, ok, err)
				}
				deleted[id] = true
			}
			verifyAgainstOracle(t, d, span, deleted)

			if err := d.Close(); err == nil {
				t.Error("Close did not report the broken log")
			}
			if _, err := d.Insert(extra[0]); !errors.Is(err, errClosed) {
				t.Errorf("Insert after Close: err = %v, want errClosed", err)
			}
			if _, err := d.InsertBatch(extra[:3]); !errors.Is(err, errClosed) {
				t.Errorf("InsertBatch after Close: err = %v, want errClosed", err)
			}
			if _, err := d.Delete(20); !errors.Is(err, errClosed) {
				t.Errorf("Delete after Close: err = %v, want errClosed", err)
			}
			if err := d.Snapshot(); !errors.Is(err, errClosed) {
				t.Errorf("Snapshot after Close: err = %v, want errClosed", err)
			}

			// Restart. An unlogged delete, or an unlogged insert that was the
			// last one acknowledged anywhere, leaves a consistent prefix. An
			// unlogged insert followed by logged inserts on other shards
			// leaves ID spans no hash assignment can produce: recovery
			// refuses loudly instead of renumbering the survivors.
			re, err := OpenSharded(dir)
			if first != "delete" && (healthy > 0 || first == "batch") {
				if err == nil {
					re.Close()
				}
				if err == nil || !strings.Contains(err.Error(), "inconsistent") {
					t.Fatalf("OpenSharded over skewed shard logs: err = %v, want the inconsistency named", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenSharded after the fault: %v", err)
			}
			defer re.Close()
			if first == "insert" {
				span-- // the unlogged insert is gone
			} else {
				delete(deleted, 7) // the unlogged delete is undone
			}
			if re.IDSpan() != span || re.Len() != span-len(deleted) {
				t.Errorf("recovered span %d len %d, want the acknowledged prefix (%d, %d)", re.IDSpan(), re.Len(), span, span-len(deleted))
			}
			verifyAgainstOracle(t, re, span, deleted)
		})
	}
}

// TestDurableShardedFaultStream drives a random insert/delete stream
// (single and batch) through a durable ShardedSearcher, breaks one shard's
// log part-way, and checks every step against a model of the fault contract
// and every intermediate state against the brute-force oracle — the shape
// of rindex's test_reverse (SNIPPETS.md snippet 2) with a fault in the
// middle.
func TestDurableShardedFaultStream(t *testing.T) {
	const (
		S       = 3
		dim     = 2
		ops     = 140
		breakAt = 50
		bad     = 1
		k       = 4
	)
	rng := rand.New(rand.NewSource(91))
	point := func() []float64 { return []float64{rng.Float64(), rng.Float64()} }

	initial := make([][]float64, 45)
	for i := range initial {
		initial[i] = point()
	}
	// Plain RDT: the stream is checked against the exact oracle, and only
	// plain RDT's lazy accepts are sound (a sharded engine runs the unsharded
	// algorithm, RDT+'s rare false positives included).
	ss, err := NewSharded(initial, S, WithScale(100), WithPlainRDT(), WithCompactionThreshold(16))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSharded(t.TempDir(), ss)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// The model: every point applied in memory, by global ID, and the state
	// of the bad shard's store — broken (file closed, not yet noticed) then
	// poisoned (a write failed on it; the store refuses from then on).
	live := map[int][]float64{}
	for g, p := range initial {
		live[g] = p
	}
	span := len(initial)
	broken, poisoned := false, false

	for op := 0; op < ops; op++ {
		if op == breakAt {
			breakStore(t, d.slots[bad].eng.Load().durable.Load().store)
			broken = true
		}
		switch r := rng.Float64(); {
		case r < 0.25 && len(live) > 2*k: // delete a random live member
			ids := make([]int, 0, len(live))
			for g := range live {
				ids = append(ids, g)
			}
			sort.Ints(ids) // map iteration order is random; the stream must not be
			victim := ids[rng.Intn(len(ids))]
			onBad := index.ShardOf(victim, S) == bad
			ok, err := d.Delete(victim)
			switch {
			case onBad && poisoned:
				refused(t, "Delete", err)
				if ok {
					t.Fatalf("op %d: refused delete reported success", op)
				}
			case onBad && broken:
				if ok || !errors.Is(err, os.ErrClosed) {
					t.Fatalf("op %d: unlogged delete = (%v, %v)", op, ok, err)
				}
				delete(live, victim)
				poisoned = true
			default:
				if !ok || err != nil {
					t.Fatalf("op %d: Delete(%d) = (%v, %v)", op, victim, ok, err)
				}
				delete(live, victim)
			}
		default: // insert one point, or a small batch
			n := 1
			if r > 0.8 {
				n = 2 + rng.Intn(3)
			}
			pts := make([][]float64, n)
			touchesBad := false
			for i := range pts {
				pts[i] = point()
				touchesBad = touchesBad || index.ShardOf(span+i, S) == bad
			}
			var ids []int
			var err error
			if n == 1 {
				var g int
				g, err = d.Insert(pts[0])
				ids = []int{g}
			} else {
				ids, err = d.InsertBatch(pts)
			}
			switch {
			case touchesBad && poisoned:
				refused(t, "insert", err)
				if n > 1 && ids != nil {
					t.Fatalf("op %d: rejected batch returned ids %v", op, ids)
				}
				if d.IDSpan() != span {
					t.Fatalf("op %d: refused insert moved the shard map to %d, want %d", op, d.IDSpan(), span)
				}
				continue // nothing applied, nothing new to check
			case touchesBad && broken:
				if !errors.Is(err, os.ErrClosed) {
					t.Fatalf("op %d: unlogged insert err = %v", op, err)
				}
				poisoned = true
			default:
				if err != nil {
					t.Fatalf("op %d: insert of %d: %v", op, n, err)
				}
			}
			if len(ids) != n {
				t.Fatalf("op %d: insert of %d returned ids %v", op, n, ids)
			}
			for i, g := range ids {
				if g != span+i {
					t.Fatalf("op %d: assigned id %d, want %d", op, g, span+i)
				}
				live[g] = pts[i]
			}
			span += n
		}

		if d.IDSpan() != span || d.Len() != len(live) {
			t.Fatalf("op %d: engine span %d len %d, model %d %d", op, d.IDSpan(), d.Len(), span, len(live))
		}
		checkStreamOracle(t, d, live, span, k, rng)
	}
	if !poisoned {
		t.Fatal("the stream never reached the broken shard; the test checked nothing")
	}
}

// checkStreamOracle compares the engine with a brute-force oracle over the
// model's live points: every live point reads back, every dead ID reads
// nil, and three random member queries plus the newest member agree.
func checkStreamOracle(t *testing.T, d *ShardedSearcher, live map[int][]float64, span, k int, rng *rand.Rand) {
	t.Helper()
	var pts [][]float64
	var toGlobal []int
	for g := 0; g < span; g++ {
		p, ok := live[g]
		if got := memberPoint(d, g); !reflect.DeepEqual(got, p) {
			t.Fatalf("member %d reads %v, model holds %v (live %v)", g, got, p, ok)
		}
		if ok {
			pts = append(pts, p)
			toGlobal = append(toGlobal, g)
		}
	}
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []int{rng.Intn(len(pts)), rng.Intn(len(pts)), rng.Intn(len(pts)), len(pts) - 1} {
		want, err := truth.RkNNByID(o, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] = toGlobal[want[i]]
		}
		got, err := d.ReverseKNN(toGlobal[o], k)
		if err != nil {
			t.Fatalf("ReverseKNN(%d, %d): %v", toGlobal[o], k, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("ReverseKNN(%d, %d) = %v, oracle %v", toGlobal[o], k, got, want)
		}
	}
}
