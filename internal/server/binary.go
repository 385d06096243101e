// Shard-serving surface: the endpoints an `rknn shard-serve` daemon adds
// so a remote coordinator can drive the scatter-gather against it — the
// compact binary protocol of internal/wire on POST /v1/binary (the one
// shard protocol), the cluster handshake on GET /v1/shard/info, and a
// remote-safe point fetch on GET /v1/points/{id}. All of it is ordinary
// public API on any server whose engine exposes the methods it calls.

package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	repro "repro"
	"repro/internal/wire"
)

// ShardServing is the shard-daemon surface of an Engine (*repro.Searcher
// implements it, with or without a store; New resolves it once): the forward
// neighbor stream a coordinator merges across shards, batched forward-kNN
// probes and verification counts with explicit self-exclusion, batched
// member-point resolution that never panics on hostile IDs, and the shard's
// self-description behind the coordinator's handshake and health loop.
type ShardServing interface {
	NeighborStream(rows []repro.Neighbor, points [][]float64, q []float64, skip int, after repro.Neighbor, count int) ([]repro.Neighbor, [][]float64, bool, error)
	KNNSkipBatch(qs []repro.KNNQuery) ([][]repro.Neighbor, error)
	CountCloserBatch(qs []repro.CountCloserQuery) ([]int, error)
	MemberPoints(ids ...int) [][]float64
	Describe(shard, shards int) (repro.ShardDescription, error)
}

// maxBinaryBody bounds /v1/binary request frames. Verification batches
// carry up to a few thousand float64 vectors, well under this; anything
// larger is a confused or hostile client.
const maxBinaryBody = 16 << 20

// handleBinary answers one frame of the binary shard protocol. Framing
// errors are HTTP errors (415 for a missing Content-Type, 400 for a
// malformed frame); application errors travel INSIDE a wire error frame
// with HTTP 200, so the remote client has exactly one place to look for
// engine semantics (deleted members, bad K) regardless of transport
// health.
func (srv *Server) handleBinary(w http.ResponseWriter, r *http.Request) error {
	// A strict Content-Type gate, not a decode attempt: feeding a JSON
	// body (or anything else) to the binary decoder must answer 415, never
	// reach the frame parser.
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, wire.ContentType) {
		return &apiError{
			status: http.StatusUnsupportedMediaType,
			err:    fmt.Errorf("binary endpoint wants Content-Type %s, got %q", wire.ContentType, ct),
		}
	}
	// One pooled buffer serves the exchange: the request frame is read into
	// it, DecodeRequest copies out everything it keeps, and the response is
	// encoded over the same bytes. It goes back when Write has returned.
	buf := wire.GetFrame()
	defer buf.Release()
	if err := buf.ReadBody(http.MaxBytesReader(w, r.Body, maxBinaryBody), r.ContentLength); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{
				status: http.StatusRequestEntityTooLarge,
				err:    fmt.Errorf("request frame exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest("reading request frame: %v", err)
	}
	req, err := wire.DecodeRequest(buf.B)
	if err != nil {
		return badRequest("malformed frame: %v", err)
	}
	buf.B = buf.B[:0]

	// Every op but OpRkNN — which any Engine answers — needs the shard surface.
	sv := srv.shardSv
	if sv == nil && req.Op != wire.OpRkNN {
		return writeFrame(w, wire.AppendError(buf.B, wire.ErrUnsupported, "engine has no shard-serving surface"))
	}
	switch req.Op {
	case wire.OpRkNN:
		var (
			ids []int
			st  repro.Stats
		)
		if req.ByID {
			ids, st, err = srv.s.ReverseKNNStatsContext(r.Context(), req.ID, req.K)
		} else {
			ids, st, err = srv.s.ReverseKNNPointStatsContext(r.Context(), req.Point, req.K)
		}
		if err != nil {
			break
		}
		buf.B = wire.AppendRkNNResponse(buf.B, ids, wire.Stats{
			ScanDepth:     st.ScanDepth,
			FilterSize:    st.FilterSize,
			Excluded:      st.Excluded,
			LazyAccepts:   st.LazyAccepts,
			LazyRejects:   st.LazyRejects,
			Verified:      st.Verified,
			DistanceComps: st.DistanceComps,
			Omega:         st.Omega,
		})
	case wire.OpNeighbors:
		st := stagingPool.Get().(*neighborStaging)
		var done bool
		st.rows, st.points, done, err = sv.NeighborStream(st.rows[:0], st.points[:0], req.Point, req.Skip, req.After, req.Count)
		if err == nil {
			buf.B = wire.AppendNeighborsResponse(buf.B, st.rows, st.points, done)
		}
		clear(st.points) // a pooled staging pins no snapshot's rows
		stagingPool.Put(st)
	case wire.OpKNNBatch:
		qs := make([]repro.KNNQuery, len(req.KNN))
		for i, q := range req.KNN {
			qs[i] = repro.KNNQuery{Point: q.Point, K: q.K, Skip: q.Skip}
		}
		var lists [][]repro.Neighbor
		if lists, err = sv.KNNSkipBatch(qs); err == nil {
			buf.B = wire.AppendKNNBatchResponse(buf.B, lists)
		}
	case wire.OpCountBatch:
		var counts []int
		if counts, err = sv.CountCloserBatch(req.Counts); err == nil {
			buf.B = wire.AppendCountBatchResponse(buf.B, counts)
		}
	case wire.OpPoints:
		buf.B = wire.AppendPointsResponse(buf.B, sv.MemberPoints(req.IDs...))
	default:
		return badRequest("unknown op %d", req.Op)
	}
	if err != nil {
		buf.B = appendWireError(buf.B, err)
	}
	return writeFrame(w, buf.B)
}

// neighborStaging is what an OpNeighbors answer passes through between the
// engine's cursor and the encoder — the chunk's rows and references to their
// coordinates — recycled across requests.
type neighborStaging struct {
	rows   []repro.Neighbor
	points [][]float64
}

var stagingPool = sync.Pool{New: func() any { return new(neighborStaging) }}

// writeFrame sends one response frame. The length is known, so it is
// declared: the remote client sizes the buffer it reads the body into by it.
// The frame is the caller's again when this returns (Write retains nothing).
func writeFrame(w http.ResponseWriter, frame []byte) error {
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
	return nil
}

// appendWireError maps an engine error to a wire error frame, preserving
// the message (the coordinator reconstructs the exact in-process error
// string from it) and classifying deleted-member queries for errors.Is on
// the far side.
func appendWireError(dst []byte, err error) []byte {
	code := wire.ErrBadRequest
	if errors.Is(err, repro.ErrDeleted) {
		code = wire.ErrDeleted
	}
	return wire.AppendError(dst, code, err.Error())
}

// handleShardInfo is the cluster handshake: the engine's description as the
// daemon's shard role (WithShardRole) — repro.ShardDescription, which a
// coordinator reads at start-up and its health loop on every tick.
func (srv *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) error {
	sv := srv.shardSv
	if sv == nil {
		return &apiError{
			status: http.StatusNotImplemented,
			err:    errors.New("engine has no shard-serving surface"),
		}
	}
	d, err := sv.Describe(srv.shard, srv.shards)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, d)
}

// handlePointGet resolves one member ID to its coordinates — the
// remote-safe single-point read. Dead or never-assigned IDs answer 404. It
// needs only MemberPoints, which every in-process engine has (Local); a
// coordinator answers 501 until a point read that can return an RPC error
// exists.
func (srv *Server) handlePointGet(w http.ResponseWriter, r *http.Request) error {
	sv := srv.local
	if sv == nil {
		return &apiError{
			status: http.StatusNotImplemented,
			err:    errors.New("engine has no point read"),
		}
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return badRequest("invalid point id %q", r.PathValue("id"))
	}
	rows := sv.MemberPoints(id)
	if len(rows) != 1 || rows[0] == nil {
		return &apiError{status: http.StatusNotFound, err: fmt.Errorf("point %d not found", id)}
	}
	return writeJSON(w, http.StatusOK, map[string]any{"id": id, "point": rows[0]})
}
