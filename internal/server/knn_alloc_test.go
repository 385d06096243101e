package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/indextest"
	"repro/internal/wire"
)

// TestHugeKNNAllocatesByLiveCount pins that a forward kNN sizes its buffers
// by the live point count, not by the caller's k. One kNN with k = 1<<22 on
// a 200-point engine — a Searcher, a ShardedSearcher with S=3, and a shard
// daemon answering an OpKNNBatch frame — allocates at most 1 MB (a k-sized
// heap alone is 64 MB) and answers all 200 points. The JSON route answers a
// k of a billion the same way, where it used to exhaust memory.
func TestHugeKNNAllocatesByLiveCount(t *testing.T) {
	const n, k = 200, 1 << 22
	pts := indextest.RandPoints(n, 2, 11)
	s, err := repro.New(pts, repro.WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := repro.NewSharded(pts, 3, repro.WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	q := []float64{1, 2}
	daemon := New(s, WithShardRole(0, 1)).Handler()
	frame := wire.AppendKNNBatchRequest(nil, []wire.KNNQuery{{Point: q, K: k, Skip: -1}})

	for _, c := range []struct {
		name string
		knn  func() ([]repro.Neighbor, error)
	}{
		{"searcher", func() ([]repro.Neighbor, error) { return s.KNN(q, k) }},
		{"sharded-3", func() ([]repro.Neighbor, error) { return ss.KNN(q, k) }},
		{"daemon-OpKNNBatch", func() ([]repro.Neighbor, error) {
			req := httptest.NewRequest(http.MethodPost, "/v1/binary", bytes.NewReader(frame))
			req.Header.Set("Content-Type", wire.ContentType)
			rec := httptest.NewRecorder()
			daemon.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("daemon: status %d: %s", rec.Code, rec.Body)
			}
			lists, err := wire.DecodeKNNBatchResponse(rec.Body.Bytes())
			if err != nil || len(lists) != 1 {
				return nil, err
			}
			return lists[0], nil
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nn, err := c.knn()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(nn) != n {
			t.Errorf("%s: %d neighbors, want all %d", c.name, len(nn), n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: one kNN with k=%d allocated %d bytes, want <= 1 MB", c.name, k, got)
		}
	}

	rec := httptest.NewRecorder()
	daemon.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/knn", strings.NewReader(`{"point":[1,2],"k":1000000000}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/knn k=1e9: status %d: %s", rec.Code, rec.Body)
	}
	if got := strings.Count(rec.Body.String(), `"id"`); got != n {
		t.Errorf("POST /v1/knn k=1e9 answered %d neighbors, want all %d", got, n)
	}
}
