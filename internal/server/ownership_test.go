// Ownership of the shard protocol's recycled buffers, from outside: under
// the race detector a released arena is filled with NaN before it is pooled
// (internal/wire), so a coordinate read after its stream was released turns
// an answer that must equal the in-process engine's into one that does not.

package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/indextest"
	"repro/internal/wire"
)

// TestClusterConcurrentQueriesMatchInProcess runs eight callers through one
// coordinator at once — different members, different external points, the
// streams of all of them drawing on the same pools — and holds every answer
// and its Stats to the in-process sharded engine's.
func TestClusterConcurrentQueriesMatchInProcess(t *testing.T) {
	pts := indextest.ClusteredPoints(400, 6, 5, 81)
	external := indextest.RandPoints(8, 6, 82)
	_, _, engines := topologies(t, pts, repro.WithScale(3))
	ref := engines["sharded-3"]
	ctx := context.Background()
	for _, name := range []string{"cluster-1", "cluster-3"} {
		co := engines[name]
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 24; i++ {
					qid, k := (g*53+i*17)%len(pts), 3+g%4
					want, wantSt, err := ref.ReverseKNNStatsContext(ctx, qid, k)
					if err != nil {
						t.Errorf("in-process member %d: %v", qid, err)
						return
					}
					got, gotSt, err := co.ReverseKNNStatsContext(ctx, qid, k)
					if err != nil || fmt.Sprint(got) != fmt.Sprint(want) || gotSt != wantSt {
						t.Errorf("%s, caller %d, member %d: (%v, %+v, %v), in-process (%v, %+v)", name, g, qid, got, gotSt, err, want, wantSt)
					}
				}
				want, wantSt, err := ref.ReverseKNNPointStatsContext(ctx, external[g], 5)
				if err != nil {
					t.Errorf("in-process point %d: %v", g, err)
					return
				}
				got, gotSt, err := co.ReverseKNNPointStatsContext(ctx, external[g], 5)
				if err != nil || fmt.Sprint(got) != fmt.Sprint(want) || gotSt != wantSt {
					t.Errorf("%s, caller %d, point: (%v, %+v, %v), in-process (%v, %+v)", name, g, got, gotSt, err, want, wantSt)
				}
			}(g)
		}
		wg.Wait()
	}
}

// isNeighborsFrame reports whether r posts an OpNeighbors frame, leaving the
// body readable.
func isNeighborsFrame(r *http.Request) bool {
	if r.Body == nil || !strings.HasSuffix(r.URL.Path, "/v1/binary") {
		return false
	}
	frame, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(frame))
	return len(frame) >= 2 && wire.Op(frame[1]) == wire.OpNeighbors
}

// TestClusterCancelWhileDaemonBlocks cancels a query while one daemon sits on
// the first chunk of its stream: the caller gets its context's error at
// once; the stream whose first fetch was never received is not recycled, so
// the queries that follow — answered while the daemon is still stuck, from
// the same pools — equal the in-process engine's; and once the daemon is let
// go, no goroutine of the abandoned query is left running. It holds on both
// exchanges: the daemon stuck in a POSTed frame's handler, and stuck on a
// stream message.
func TestClusterCancelWhileDaemonBlocks(t *testing.T) {
	pts := indextest.ClusteredPoints(300, 5, 4, 83)
	opts := []repro.Option{repro.WithScale(3)}
	ss, err := repro.NewSharded(pts, 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, exchange := range []string{"post", "stream"} {
		t.Run(exchange, func(t *testing.T) {
			var armed atomic.Bool
			entered, letGo, left := make(chan struct{}), make(chan struct{}), make(chan struct{})
			block := func() {
				close(entered)
				<-letGo
			}
			var daemon daemonFunc
			if exchange == "post" {
				daemon = wrappedDaemon(func(shard int, srv *Server) http.Handler {
					h := srv.Handler()
					return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if shard == 1 && isNeighborsFrame(r) && armed.CompareAndSwap(true, false) {
							block()
							defer close(left)
						}
						refuseUpgrade(w, r, h)
					})
				})
			} else {
				daemon = wrappedDaemon(func(shard int, srv *Server) http.Handler {
					return streamDaemon(srv, func(frame []byte, answer func([]byte) []byte) ([]byte, bool) {
						if shard == 1 && len(frame) > 1 && wire.Op(frame[1]) == wire.OpNeighbors && armed.CompareAndSwap(true, false) {
							block()
							defer close(left)
						}
						return wire.AppendResponseMessage(nil, answer(frame)), false
					})
				})
			}
			cl := startClusterDaemons(t, pts, 3, 1, opts, daemon)
			check := func(from, to int) {
				t.Helper()
				for qid := from; qid < to; qid++ {
					want, wantSt, err := ss.ReverseKNNStatsContext(context.Background(), qid, 4)
					if err != nil {
						t.Fatal(err)
					}
					got, gotSt, err := cl.co.ReverseKNNStatsContext(context.Background(), qid, 4)
					if err != nil || fmt.Sprint(got) != fmt.Sprint(want) || gotSt != wantSt {
						t.Fatalf("member %d: cluster (%v, %+v, %v), in-process (%v, %+v)", qid, got, gotSt, err, want, wantSt)
					}
				}
			}
			check(0, 20) // pools warm: a recycled stream is there to be handed out

			armed.Store(true)
			ctx, cancel := context.WithCancel(context.Background())
			failed := make(chan error, 1)
			go func() {
				_, err := cl.co.ReverseKNNContext(ctx, 7, 4)
				failed <- err
			}()
			<-entered
			cancel()
			select {
			case err := <-failed:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled query answered %v, want the context's error", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the cancelled query is still waiting on the stuck daemon")
			}
			check(20, 60)
			// On a stream the cancel closed the exchange's connection: the
			// coordinator is not waiting on the stuck daemon any more.
			if leaked, stacks := goroutinesIn("(*streamConn).exchange"); leaked != "" {
				t.Fatalf("the cancelled exchange still waits on the stuck daemon:\n%s", stacks)
			}

			close(letGo)
			<-left
			// The connections the later queries left idle hold stream loops
			// open by design; closing the coordinator ends them.
			cl.co.Close()
			// Nothing of the query is still running: not a stream's fetch, not
			// an RPC of one on either exchange, not the daemon's handler or
			// stream loop. (The cluster is quiet, so any such frame on any
			// stack is the cancelled query's.)
			if leaked, stacks := goroutinesIn("remoteShard).Neighbors", "remoteShard).attempt", "(*Server).handleBinary",
				"(*Server).serveStream", "server.testStreamLoop", "(*streamConn).exchange"); leaked != "" {
				t.Fatalf("a goroutine is still in %s after the daemon let go of the cancelled query:\n%s", leaked, stacks)
			}
		})
	}
}

// TestCoordinatorLyingContentLength is a daemon that declares a 64 MiB
// neighbor chunk and sends ten bytes of it — as a POST response's
// Content-Length, and as a stream message's length, after which it hangs
// up. The query fails naming the shard, and the coordinator has allocated a
// buffer of the pool's cap on the daemon's word, not the 64 MiB it used to.
func TestCoordinatorLyingContentLength(t *testing.T) {
	pts := indextest.RandPoints(120, 3, 85)
	for _, exchange := range []string{"post", "stream"} {
		t.Run(exchange, func(t *testing.T) {
			var lying atomic.Bool
			daemon := wrappedDaemon(func(_ int, srv *Server) http.Handler {
				h := srv.Handler()
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !lying.Load() || !isNeighborsFrame(r) {
						refuseUpgrade(w, r, h)
						return
					}
					w.Header().Set("Content-Type", wire.ContentType)
					w.Header().Set("Content-Length", "67108864")
					_, _ = w.Write(make([]byte, 10))
				})
			})
			if exchange == "stream" {
				daemon = wrappedDaemon(func(_ int, srv *Server) http.Handler {
					return streamDaemon(srv, func(frame []byte, answer func([]byte) []byte) ([]byte, bool) {
						if !lying.Load() || len(frame) < 2 || wire.Op(frame[1]) != wire.OpNeighbors {
							return wire.AppendResponseMessage(nil, answer(frame)), false
						}
						return append(binary.LittleEndian.AppendUint32(nil, 64<<20), make([]byte, 10)...), true
					})
				})
			}
			cl := startClusterDaemons(t, pts, 1, 1, []repro.Option{repro.WithScale(4)}, daemon, repro.WithRetries(0, 0))
			if _, err := cl.co.ReverseKNN(5, 4); err != nil {
				t.Fatalf("honest daemon: %v", err)
			}
			lying.Store(true)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := cl.co.ReverseKNN(5, 4)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "unexpected EOF") {
				t.Errorf("query against a daemon that sends 10 of 67108864 declared bytes: %v, want a short read naming shard 0", err)
			}
			if spent := after.TotalAlloc - before.TotalAlloc; spent >= 2<<20 {
				t.Errorf("%d bytes allocated for a response of ten: the coordinator sized a buffer by the daemon's word", spent)
			}
			lying.Store(false)
			if _, err := cl.co.ReverseKNN(5, 4); err != nil {
				t.Errorf("honest again: %v", err)
			}
		})
	}
}
