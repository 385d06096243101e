package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/index"
	"repro/internal/wire"
)

// gridPoints draws n points on a coarse integer grid: exact duplicates and
// exact distance ties everywhere, within a shard and across shards.
func gridPoints(n, dim, side int, rng *rand.Rand) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64(rng.Intn(side))
		}
		pts[i] = p
	}
	return pts
}

// TestMergedStreamIsTheUnionStream pins the property the sharded engines
// stand on: the merged cursor of a scatter set yields exactly — row for row,
// ID for ID, tie for tie — what one index over the union of the shards
// yields, and resolves the same coordinates, for any shard count. The data
// is a coarse grid (duplicates, cross-shard ties); the engines are read
// through a dirty overlay (memtable rows and tombstones); the query is an
// external point or a member, whose self-exclusion must land on its home
// shard only.
func TestMergedStreamIsTheUnionStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	initial := gridPoints(180, 3, 4, rng)
	extra := gridPoints(40, 3, 4, rng)
	victims := []int{2, 17, 18, 60, 179, 185, 201, 219}
	for _, b := range []Backend{BackendScan, BackendCoverTree} {
		for _, S := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("%s/S=%d", b, S), func(t *testing.T) {
				// No compaction: the writes stay in the overlay's delta.
				opts := []Option{WithBackend(b), WithScale(4), WithCompactionThreshold(1 << 20)}
				single, err := New(initial, opts...)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := NewSharded(initial, S, opts...)
				if err != nil {
					t.Fatal(err)
				}
				dead := map[int]bool{}
				for _, p := range extra {
					if _, err := single.Insert(p); err != nil {
						t.Fatal(err)
					}
					if _, err := ss.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range victims {
					if ok, err := single.Delete(id); !ok || err != nil {
						t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
					}
					if ok, err := ss.Delete(id); !ok || err != nil {
						t.Fatalf("sharded Delete(%d) = (%v, %v)", id, ok, err)
					}
					dead[id] = true
				}
				if single.MemtableLen() == 0 || ss.MemtableLen() == 0 {
					t.Fatal("the overlays are clean; the test would not read through a delta")
				}
				union := single.snap.Load().ix
				sc := ss.pin(nil).(*scatterSet)
				if sc.n != union.Len() {
					t.Fatalf("scatter set holds %d live points, the union %d", sc.n, union.Len())
				}

				queries := []int{-1, -1, 0, 5, 61, 178, 180, 200, 218} // the last three are memtable members
				for i, qid := range queries {
					f := &fedIndex{sc: sc, ctx: context.Background(), k: 5, qid: -1, home: -1}
					q := []float64{float64(i % 4), 1.5, 2}
					if qid >= 0 {
						if !f.Live(qid) {
							t.Fatalf("member %d does not resolve: %v", qid, f.err)
						}
						q = f.q
						if want := union.Point(qid); !equalPoints(q, want) {
							t.Fatalf("member %d resolves to %v, the union holds %v", qid, q, want)
						}
					}
					merged, want := f.NewCursor(q, qid), union.NewCursor(q, qid)
					for pos := 0; ; pos++ {
						w, wok := want.Next()
						g, gok := merged.Next()
						if f.err != nil {
							t.Fatalf("query %d: merged stream failed: %v", qid, f.err)
						}
						if g != w || gok != wok {
							t.Fatalf("query %d, position %d: merged stream yields %+v (ok=%v), the union's cursor %+v (ok=%v)", qid, pos, g, gok, w, wok)
						}
						if !wok {
							break
						}
						if g.ID == qid || dead[g.ID] {
							t.Fatalf("query %d: stream yielded excluded id %d", qid, g.ID)
						}
						if !equalPoints(f.Point(g.ID), union.Point(g.ID)) {
							t.Fatalf("query %d: id %d resolves to %v, the union holds %v", qid, g.ID, f.Point(g.ID), union.Point(g.ID))
						}
					}
				}
			})
		}
	}
}

func equalPoints(a, b []float64) bool {
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

// failingShard is a shardClient whose stream breaks after a few rows and
// whose counts fail — a shard lost mid-query.
type failingShard struct {
	shardClient
	after     int
	failCount bool
}

type failingStream struct {
	shardStream
	left int
	err  error
}

func (s *failingStream) Next() (index.Neighbor, bool) {
	if s.left == 0 {
		s.err = fmt.Errorf("connection reset")
		return index.Neighbor{}, false
	}
	s.left--
	return s.shardStream.Next()
}
func (s *failingStream) Err() error { return s.err }

func (f failingShard) Neighbors(ctx context.Context, q []float64, skip, expect int) shardStream {
	st := f.shardClient.Neighbors(ctx, q, skip, expect)
	if f.after < 0 {
		return st
	}
	return &failingStream{shardStream: st, left: f.after}
}

func (f failingShard) CountBatch(ctx context.Context, probes []CountCloserQuery) ([]int, error) {
	if f.failCount {
		return nil, fmt.Errorf("connection reset")
	}
	return f.shardClient.CountBatch(ctx, probes)
}

// TestShardFailureVoidsTheQuery pins the error contract of the federated
// index, whose methods have no error returns: a stream that breaks mid-scan
// or a count round that fails is never mistaken for an exhausted shard or a
// settled candidate — the query fails with the shard's error, whatever the
// algorithm computed from the part it saw.
func TestShardFailureVoidsTheQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ss, err := NewSharded(pts, 3, WithScale(3))
	if err != nil {
		t.Fatal(err)
	}
	healthy := ss.pin(nil).(*scatterSet)
	// A query that verifies something, so the count round runs.
	qid := -1
	for id := range pts {
		if _, st, _, err := healthy.reverseKNN(context.Background(), id, nil, 6); err != nil {
			t.Fatal(err)
		} else if st.Verified > 0 {
			qid = id
			break
		}
	}
	if qid < 0 {
		t.Fatal("no query verifies a candidate")
	}
	for name, broken := range map[string]failingShard{
		"stream breaks": {after: 4},
		"count fails":   {after: -1, failCount: true},
	} {
		sc := *healthy
		sc.clients = append([]pinnedShard(nil), healthy.clients...)
		broken.shardClient = sc.clients[1].shardClient
		sc.clients[1].shardClient = broken
		ids, _, _, err := sc.reverseKNN(context.Background(), qid, nil, 6)
		if err == nil || ids != nil {
			t.Errorf("%s: query answered (%v, %v), want the shard's error", name, ids, err)
		} else if got := err.Error(); got != "connection reset" {
			t.Errorf("%s: error %q, want the shard's, untagged (the surface tags it once)", name, got)
		}
	}
}

// lateTransport holds every POST until its context is done, then sends it on
// under a context that is not: the daemon's answer arrives after the caller
// has given up on it. The stream upgrade passes straight through, for the
// test daemon to refuse.
type lateTransport struct{ entered chan struct{} }

func (l lateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return http.DefaultTransport.RoundTrip(req)
	}
	close(l.entered)
	<-req.Context().Done()
	return http.DefaultTransport.RoundTrip(req.Clone(context.Background()))
}

// TestAbandonedStreamIsNeverRecycled pins the one case in which a remote
// stream's storage must not go back to its pool: Next gave up at ctx.Done
// while the goroutine fetching the first chunk was still at work. Here that
// goroutine's chunk does arrive, after the query has released the stream, and
// is appended — into storage that is still the stream's own, which the pool
// never saw. (A build that recycles it fails the race detector here, and in
// internal/server's TestClusterCancelWhileDaemonBlocks.)
func TestAbandonedStreamIsNeverRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng, err := New(gridPoints(60, 3, 50, rng), WithScale(4))
	if err != nil {
		t.Fatal(err)
	}
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		frame, _ := io.ReadAll(r.Body)
		req, err := wire.DecodeRequest(frame)
		if err != nil || req.Op != wire.OpNeighbors {
			http.Error(w, "the test daemon streams neighbors only", http.StatusBadRequest)
			return
		}
		rows, pts, done, err := eng.NeighborStream(nil, nil, req.Point, req.Skip, req.After, req.Count)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", wire.ContentType)
		_, _ = w.Write(wire.AppendNeighborsResponse(nil, rows, pts, done))
	}))
	defer daemon.Close()
	over := func(rt http.RoundTripper) *remoteShard {
		return &remoteShard{rs: newReplicaSet([]string{daemon.URL}, rt), cc: &clusterClient{hc: &http.Client{Transport: rt}}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	late := lateTransport{make(chan struct{})}
	s := over(late).Neighbors(ctx, []float64{25, 25, 25}, -1, 8).(*remoteStream)
	first := s.first
	<-late.entered
	cancel()
	if _, ok := s.Next(); ok || !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Next on a cancelled stream: ok=%v, err=%v", ok, s.Err())
	}
	s.Close()
	s.release()
	if got := wire.GetStream(); got == s.buf {
		t.Fatal("the pool handed out the storage of a stream whose fetch was still in flight")
	}
	if err := <-first; err != nil {
		t.Fatalf("the abandoned fetch: %v", err)
	}
	want, err := eng.KNN([]float64{25, 25, 25}, 8)
	if err != nil || len(s.buf.Rows) != 8 {
		t.Fatalf("the abandoned fetch appended %d rows, want 8", len(s.buf.Rows))
	}
	for i, nb := range s.buf.Rows {
		if nb != want[i] || !equalPoints(s.buf.Points[i], eng.Point(nb.ID)) {
			t.Errorf("row %d: (%+v, %v), the engine holds (%+v, %v)", i, nb, s.buf.Points[i], want[i], eng.Point(nb.ID))
		}
	}

	// The other side of the rule: a stream whose first fetch was received
	// goes back when it is released, rows forgotten.
	s = over(http.DefaultTransport).Neighbors(context.Background(), []float64{25, 25, 25}, -1, 8).(*remoteStream)
	if _, ok := s.Next(); !ok {
		t.Fatalf("Next: %v", s.Err())
	}
	s.Close()
	s.release()
	if len(s.buf.Rows) != 0 {
		t.Errorf("a released stream still holds %d rows", len(s.buf.Rows))
	}
}
