// Shard-serving surface: the endpoints an `rknn shard-serve` daemon adds
// so a remote coordinator can drive the scatter-gather against it — the
// compact binary protocol of internal/wire on /v1/binary (the one shard
// protocol: a GET upgrades the connection to a stream of frames, which is
// how coordinators read, and a POST carries one frame), the cluster
// handshake on GET /v1/shard/info, and a remote-safe point fetch on GET
// /v1/points/{id}. All of it is ordinary public API on any server whose
// engine exposes the methods it calls.

package server

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

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

// handleBinary answers one frame of the binary shard protocol posted to
// /v1/binary — the framing a coordinator falls back to for a daemon that
// refuses the stream upgrade. Framing errors are HTTP errors (415 for a
// missing Content-Type, 413 past maxBinaryBody, 400 for a malformed frame);
// application errors travel INSIDE a wire error frame with HTTP 200, so the
// remote client has exactly one place to look for engine semantics (deleted
// members, bad K) regardless of transport health.
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
	// it and the response is encoded over the same bytes (see dispatch). It
	// goes back when Write has returned.
	buf := wire.GetFrame()
	defer buf.Release()
	if err := buf.ReadBody(http.MaxBytesReader(w, r.Body, maxBinaryBody), r.ContentLength); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return tooLarge(mbe.Limit)
		}
		return badRequest("reading request frame: %v", err)
	}
	var err error
	if buf.B, err = srv.dispatch(r.Context(), buf.B, buf.B[:0]); err != nil {
		return err
	}
	return writeFrame(w, buf.B)
}

// tooLarge is the failure of a request frame past maxBinaryBody, in the
// same words on both framings.
func tooLarge(limit int64) error {
	return &apiError{
		status: http.StatusRequestEntityTooLarge,
		err:    fmt.Errorf("request frame exceeds %d bytes", limit),
	}
}

// dispatch answers one request frame, whichever framing carried it: it
// decodes frame and appends the response frame to dst. frame may share
// dst's array past dst's end — DecodeRequest copies out everything it
// keeps, so nothing is appended before the frame is done with. A frame that
// does not decode is the returned error, which each framing renders its own
// way (a 400 on POST, an error frame on a stream); an engine error is an
// error frame in the response.
func (srv *Server) dispatch(ctx context.Context, frame, dst []byte) ([]byte, error) {
	req, err := wire.DecodeRequest(frame)
	if err != nil {
		return dst, badRequest("malformed frame: %v", err)
	}
	// Every op but OpRkNN — which any Engine answers — needs the shard surface.
	sv := srv.shardSv
	if sv == nil && req.Op != wire.OpRkNN {
		return wire.AppendError(dst, wire.ErrUnsupported, "engine has no shard-serving surface"), nil
	}
	switch req.Op {
	case wire.OpRkNN:
		var (
			ids []int
			st  repro.Stats
		)
		if req.ByID {
			ids, st, err = srv.s.ReverseKNNStatsContext(ctx, req.ID, req.K)
		} else {
			ids, st, err = srv.s.ReverseKNNPointStatsContext(ctx, req.Point, req.K)
		}
		if err != nil {
			break
		}
		dst = wire.AppendRkNNResponse(dst, ids, wire.Stats{
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
			dst = wire.AppendNeighborsResponse(dst, st.rows, st.points, done)
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
			dst = wire.AppendKNNBatchResponse(dst, lists)
		}
	case wire.OpCountBatch:
		var counts []int
		if counts, err = sv.CountCloserBatch(req.Counts); err == nil {
			dst = wire.AppendCountBatchResponse(dst, counts)
		}
	case wire.OpPoints:
		dst = wire.AppendPointsResponse(dst, sv.MemberPoints(req.IDs...))
	default:
		return dst, badRequest("unknown op %d", req.Op)
	}
	if err != nil {
		dst = appendWireError(dst, err)
	}
	return dst, nil
}

// handleStream is GET /v1/binary with Connection: Upgrade and Upgrade:
// rknn-frame — the framing a coordinator reads by. It answers 101, takes the
// connection over from net/http and serves stream messages on it until the
// peer closes it, the http.Server's IdleTimeout passes between two messages,
// or Close ends it.
func (srv *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), wire.UpgradeProtocol) || !headerHasToken(r.Header, "Connection", "upgrade") {
		writeError(w, &apiError{
			status: http.StatusUpgradeRequired,
			err:    fmt.Errorf("GET /v1/binary wants Connection: Upgrade and Upgrade: %s", wire.UpgradeProtocol),
		})
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeError(w, err)
		return
	}
	defer conn.Close()
	if !srv.track(conn, true) {
		return
	}
	defer srv.track(conn, false)
	conn.SetDeadline(time.Time{}) // what net/http set for the upgrade request
	_, _ = brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + wire.UpgradeProtocol + "\r\n\r\n")
	if brw.Flush() != nil {
		return
	}
	var idle time.Duration
	if hs, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		idle = cmp.Or(hs.IdleTimeout, hs.ReadTimeout)
	}
	srv.serveStream(r.Context(), conn, brw.Reader, idle)
}

// headerHasToken reports whether a comma-separated header lists token.
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// track adds an upgraded connection to the set Close ends (add), or takes it
// out. Adding fails once the server is closed.
func (srv *Server) track(conn net.Conn, add bool) bool {
	srv.streamMu.Lock()
	defer srv.streamMu.Unlock()
	if !add {
		delete(srv.streams, conn)
		return true
	}
	if srv.closed {
		return false
	}
	srv.streams[conn] = struct{}{}
	return true
}

// Close ends every live stream and refuses streams from then on. Neither
// http.Server.Shutdown nor its Close touches a connection a handler took
// over, so a serving process registers this with RegisterOnShutdown.
func (srv *Server) Close() {
	srv.streamMu.Lock()
	defer srv.streamMu.Unlock()
	srv.closed = true
	for conn := range srv.streams {
		conn.Close()
	}
}

// serveStream is the stream loop: one request message in, one response
// message out, until the connection fails or closes. Each message is one
// exchange on /v1/binary, recorded as a POSTed frame is — counters, latency,
// window, SLO, slow log and, with tracing on, a trace joined to the
// traceparent it carries. A message over maxBinaryBody is answered with the
// error a POST of it gets, and ends the stream: nothing tells where the next
// message would start.
func (srv *Server) serveStream(ctx context.Context, conn net.Conn, br *bufio.Reader, idle time.Duration) {
	const route = "/v1/binary"
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		if _, err := br.Peek(1); err != nil {
			return
		}
		if idle > 0 {
			conn.SetReadDeadline(time.Time{})
		}
		buf := wire.GetFrame()
		rerr := buf.ReadMessage(br, maxBinaryBody)
		if rerr != nil && !errors.Is(rerr, wire.ErrTooLarge) {
			buf.Release()
			return
		}
		var tp, rid, frame []byte
		var err error
		if rerr == nil {
			tp, rid, frame, err = wire.SplitRequest(buf.B)
		}
		x, fctx := srv.begin(route), ctx
		switch {
		case rerr != nil:
			err = tooLarge(maxBinaryBody)
		case err != nil:
			err = badRequest("malformed frame: %v", err)
		case srv.ring != nil:
			fctx, x = srv.open(ctx, route, string(tp), string(rid), "STREAM", route)
		}
		// The response is encoded over the request's buffer, as on POST.
		out := wire.OpenMessage(buf.B[:0])
		if err == nil {
			out, err = srv.dispatch(fctx, frame, out)
		}
		if err != nil {
			out = wire.AppendError(out[:4], wire.ErrBadRequest, err.Error())
		}
		wire.SealMessage(out)
		_, werr := conn.Write(out)
		srv.close(&x, "STREAM "+route, err)
		buf.B = out
		buf.Release()
		if werr != nil || rerr != nil {
			return
		}
	}
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
