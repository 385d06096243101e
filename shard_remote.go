package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// This file is the remote shard: a shard served by an `rknn shard-serve`
// daemon (or any rknn HTTP server holding one partition). Its read side is
// reached over HTTP in the compact binary framing of internal/wire — the one
// shard protocol; its write side is the daemon's public JSON API on the
// primary, POST /v1/points/batch and DELETE /v1/points/{id}, classified into
// the three outcomes of the shardWriter contract; JSON also carries the
// handshake. The sharded engine (shard.go) and the federated index
// (shard_client.go) are transport-blind; everything network-specific —
// chunked stream fetches, replica selection, health-based failover, retry
// with backoff, per-request timeouts, header propagation, per-shard request
// telemetry, telling a refused write from one whose outcome is unknown —
// lives here.

// maxRemoteResponse bounds how many bytes one shard response may occupy in
// memory, against a confused or hostile daemon streaming forever.
const maxRemoteResponse = 64 << 20

// replicaSet tracks the addresses serving one shard. Addrs[0] is the
// primary and the only replica that takes writes; reads rotate across the
// replicas the health loop currently believes are serving (and in sync
// with the primary — a replica whose description differs from the
// primary's, as after a write through the coordinator, is marked down, so
// reads never travel back in time relative to acknowledged writes).
type replicaSet struct {
	addrs   []string
	healthy []atomic.Bool
	rr      atomic.Uint64
	streams []*wire.Client // each replica's pooled stream connections
}

func newReplicaSet(addrs []string, rt http.RoundTripper) *replicaSet {
	rs := &replicaSet{addrs: addrs, healthy: make([]atomic.Bool, len(addrs))}
	for i := range rs.healthy {
		rs.healthy[i].Store(true)
		rs.streams = append(rs.streams, wire.NewClient(addrs[i]+binaryPath, rt))
	}
	return rs
}

// pick returns the next replica to read from: round-robin over the healthy
// ones, or — when the health loop has everything marked down — plain
// round-robin over all of them, since a stale "down" beats answering
// nothing (the attempt itself rediscovers a recovered replica).
func (rs *replicaSet) pick() int {
	n := len(rs.addrs)
	start := int(rs.rr.Add(1)-1) % n
	for off := 0; off < n; off++ {
		if i := (start + off) % n; rs.healthy[i].Load() {
			return i
		}
	}
	return start
}

func (rs *replicaSet) markDown(i int) { rs.healthy[i].Store(false) }

// remoteTelemetry is the per-remote-shard instrument set, registered by
// Coordinator.EnableTelemetry and observed on every RPC.
type remoteTelemetry struct {
	requests *telemetry.CounterVec
	errors   *telemetry.CounterVec
	retries  *telemetry.CounterVec
	latency  *telemetry.HistogramVec
}

func newRemoteTelemetry(reg *telemetry.Registry) *remoteTelemetry {
	return &remoteTelemetry{
		requests: reg.CounterVec("rknn_remote_shard_requests_total",
			"RPCs attempted against remote shards, by shard.", "shard"),
		errors: reg.CounterVec("rknn_remote_shard_request_errors_total",
			"RPC attempts against remote shards that failed, by shard.", "shard"),
		retries: reg.CounterVec("rknn_remote_shard_retries_total",
			"RPC attempts that were retried on another replica, by shard.", "shard"),
		latency: reg.HistogramVec("rknn_remote_shard_request_duration_seconds",
			"Remote shard RPC latency, by shard.", telemetry.DefaultLatencyBuckets, "shard"),
	}
}

// clusterClient is the network state every remoteShard of one Coordinator
// shares: a single http.Client over one pooled Transport (per-host
// keep-alive connections are reused across queries — fanning out with a
// fresh Transport per shard would re-handshake constantly and leak idle
// sockets) and the retry policy.
type clusterClient struct {
	coordConfig // the timeout and retry policy, and the health loop's period
	hc          *http.Client
	tel         atomic.Pointer[remoteTelemetry]
}

// remoteShard is one shard of a Coordinator: it serves shardClient calls from
// the shard's replicas and writes to its primary. live is the primary's live
// point count as the coordinator knows it — read at the handshake, moved by
// every write that landed, refreshed by the health loop.
type remoteShard struct {
	shard int
	rs    *replicaSet
	cc    *clusterClient
	live  atomic.Int64
}

// pin: a daemon pins nothing across calls (it answers each from its current
// snapshot), so the shard is its own read set.
func (r *remoteShard) pin() (shardClient, int) { return r, int(r.live.Load()) }

// writable: only the daemon can say, and it says so by refusing the write.
func (r *remoteShard) writable() error { return nil }

// remoteError maps a daemon's error message back onto the facade's error
// vocabulary, so coordinator answers carry the exact strings of the
// in-process engine: the daemon's "rknnd: " prefix is stripped (the layer
// above re-adds exactly one). Member queries are validated at the
// coordinator, so no daemon call answers with a sentinel to restore.
func remoteError(msg string) error {
	return errors.New(strings.TrimPrefix(msg, "rknnd: "))
}

// call performs one logical read RPC against the shard: cc.retries
// additional attempts with exponential backoff, each against the next
// healthy replica; an attempt that fails at the transport layer or with a
// 5xx marks its replica down (the health loop revives it).
// Application-level failures (a well-formed 4xx or a binary error frame)
// are returned to the decoder — they would fail identically everywhere. The
// body handed to decode lives in a pooled frame that is released when decode
// returns: decode copies out what it keeps.
func (r *remoteShard) call(ctx context.Context, method, path, contentType string, body []byte, decode func(status int, ctype string, body []byte) error) error {
	var lastErr error
	backoff := r.cc.backoff
	for attempt := 0; attempt <= r.cc.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			if tel := r.cc.tel.Load(); tel != nil {
				tel.retries.With(strconv.Itoa(r.shard)).Inc()
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		replica := r.rs.pick()
		status, ctype, resp, err := r.attempt(ctx, replica, method, path, contentType, body)
		if err != nil {
			r.rs.markDown(replica)
			lastErr = fmt.Errorf("shard %d (%s): %w", r.shard, r.rs.addrs[replica], err)
			continue
		}
		if status >= 500 {
			r.rs.markDown(replica)
			lastErr = fmt.Errorf("shard %d (%s): %s", r.shard, r.rs.addrs[replica], httpErrMsg(status, ctype, resp.B))
			resp.Release()
			continue
		}
		err = decode(status, ctype, resp.B)
		resp.Release()
		return err
	}
	return lastErr
}

// write performs one write RPC: a single attempt against the primary, never
// retried — a timed-out write may have been applied, and replaying it would
// assign a second ID. It returns the response body on the status ok, and
// otherwise classifies the failure for the shardWriter contract. Refused
// un-applied, an ordinary error: the request never left (the context was
// already done, the primary could not be dialed) or the daemon answered a
// well-formed 4xx, returned with its status. Anything else — a transport
// failure or timeout once the request may have left, a 5xx, a status no
// daemon sends — leaves the outcome unknown.
func (r *remoteShard) write(ctx context.Context, method, path string, body []byte, ok int) (status int, resp []byte, err error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	primary := r.rs.addrs[0]
	status, ctype, frame, err := r.attempt(ctx, 0, method, path, "application/json", body)
	defer frame.Release() // what is returned is copied out of it first
	switch {
	case err != nil: // names the URL itself
		r.rs.markDown(0)
		var op *net.OpError
		if errors.As(err, &op) && op.Op == "dial" {
			return 0, nil, err
		}
		return 0, nil, outcomeUnknown(err)
	case status == ok:
		return status, bytes.Clone(frame.B), nil
	case status/100 == 4:
		return status, nil, jsonErr(status, ctype, frame.B)
	case status >= 500:
		r.rs.markDown(0)
	}
	return status, nil, outcomeUnknown(fmt.Errorf("%s: %s", primary, httpErrMsg(status, ctype, frame.B)))
}

// outcomeUnknown marks a write the daemon may or may not have applied, and
// says what to do about it: only a new handshake can tell.
func outcomeUnknown(cause error) error {
	return fmt.Errorf("%w, the daemon may have applied it (restart the coordinator to re-read the daemons' id spans): %w", errOutcomeUnknown, cause)
}

// landed records a write the primary applied: the live count moves, and the
// shard's read-only replicas are stale — the health loop keeps them down
// while their descriptions differ from the primary's. Reads go to the
// primary meanwhile, so acknowledged writes are always visible to later
// reads.
func (r *remoteShard) landed(delta int) {
	r.live.Add(int64(delta))
	for i := 1; i < len(r.rs.addrs); i++ {
		r.rs.markDown(i)
	}
}

// InsertBatchContext is POST /v1/points/batch on the primary. A daemon that
// acknowledges the write but not one ID per point applied something the
// coordinator cannot name.
func (r *remoteShard) InsertBatchContext(ctx context.Context, pts [][]float64) ([]int, error) {
	raw, err := json.Marshal(map[string]any{"points": pts})
	if err != nil {
		return nil, err
	}
	_, resp, err := r.write(ctx, http.MethodPost, "/v1/points/batch", raw, http.StatusCreated)
	if err != nil {
		return nil, err
	}
	var out struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(resp, &out); err != nil || len(out.IDs) != len(pts) {
		return nil, outcomeUnknown(fmt.Errorf("daemon acknowledged %d of %d points (%v)", len(out.IDs), len(pts), err))
	}
	r.landed(len(pts))
	return out.IDs, nil
}

// DeleteContext is DELETE /v1/points/{local} on the primary; the daemon's 404
// is the engine's "not present".
func (r *remoteShard) DeleteContext(ctx context.Context, local int) (bool, error) {
	status, _, err := r.write(ctx, http.MethodDelete, "/v1/points/"+strconv.Itoa(local), nil, http.StatusOK)
	if status == http.StatusNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	r.landed(-1)
	return true, nil
}

// attempt is one exchange with a replica under the per-request timeout,
// traced as a "remote.call" span and stamped with the query's traceparent and
// request ID so the daemon joins the same distributed trace. The response
// body comes back in a pooled frame the caller releases (nil on error).
func (r *remoteShard) attempt(ctx context.Context, replica int, method, path, contentType string, body []byte) (status int, ctype string, frame *wire.Frame, err error) {
	if r.cc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cc.timeout)
		defer cancel()
	}
	sp := trace.FromContext(ctx).Child("remote.call")
	begin := time.Now()
	if sp != nil {
		sp.SetInt("shard", int64(r.shard))
		sp.SetStr("url", r.rs.addrs[replica]+path)
		defer sp.End()
	}
	if tel := r.cc.tel.Load(); tel != nil {
		shard := strconv.Itoa(r.shard)
		tel.requests.With(shard).Inc()
		defer func() {
			tel.latency.With(shard).Observe(time.Since(begin).Seconds())
			if err != nil || status >= 500 {
				tel.errors.With(shard).Inc()
			}
		}()
	}
	status, ctype, frame, err = r.exchange(ctx, sp, replica, method, path, contentType, body)
	if err == nil {
		sp.SetInt("status", int64(status))
	}
	return status, ctype, frame, err
}

// binaryPath is the daemons' binary endpoint: frames are POSTed to it, and
// a GET upgrades a connection to carry them as stream messages.
const binaryPath = "/v1/binary"

// exchange is one request to a replica and its response, untimed, which
// names on sp (when not nil) the exchange it took. A read frame travels on
// one of the replica's pooled stream connections ("stream"); anything else,
// and a frame for a replica that refused the upgrade, is an HTTP request
// ("post"). Frames declare their length, so the pooled buffer is sized once
// (a stream chunk is tens of kilobytes) — but never past wire.MaxPooled on
// the daemon's word alone.
func (r *remoteShard) exchange(ctx context.Context, sp *trace.Span, replica int, method, path, contentType string, body []byte) (int, string, *wire.Frame, error) {
	var tp string
	if tr := trace.FromContext(ctx).Trace(); tr != nil {
		tp = tr.Traceparent()
	}
	if path == binaryPath {
		frame, err := r.rs.streams[replica].Exchange(ctx, tp, trace.RequestID(ctx), body, maxRemoteResponse)
		if !errors.Is(err, wire.ErrRefused) {
			sp.SetStr("exchange", "stream")
			return http.StatusOK, wire.ContentType, frame, err
		}
	}
	sp.SetStr("exchange", "post")
	return wire.Do(ctx, r.cc.hc, method, r.rs.addrs[replica]+path, contentType, body, tp, trace.RequestID(ctx), maxRemoteResponse)
}

// httpErrMsg extracts the daemon's error message from a failure response:
// the {"error":...} body the server renders, or the raw status otherwise.
func httpErrMsg(status int, ctype string, body []byte) string {
	if strings.HasPrefix(ctype, "application/json") {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return e.Error
		}
	}
	return fmt.Sprintf("HTTP %d", status)
}

// jsonErr turns a non-2xx JSON response into the mapped application error.
func jsonErr(status int, ctype string, body []byte) error {
	return remoteError(httpErrMsg(status, ctype, body))
}

// binaryCall posts one wire frame to /v1/binary and decodes the response
// frame while the call still owns the body it arrived in; a wire error frame
// or a malformed one surfaces through decode and is mapped by frameErr.
func binaryCall[T any](ctx context.Context, r *remoteShard, frame []byte, decode func([]byte) (T, error)) (out T, err error) {
	err = r.call(ctx, http.MethodPost, binaryPath, wire.ContentType, frame,
		func(status int, ctype string, body []byte) (err error) {
			if !strings.HasPrefix(ctype, wire.ContentType) {
				return jsonErr(status, ctype, body)
			}
			if out, err = decode(body); err != nil {
				return r.frameErr(err)
			}
			return nil
		})
	return out, err
}

// frameErr maps a response-frame decode failure: a wire error frame becomes
// the in-process engine's error (see remoteError), anything else is a
// protocol fault attributed to the shard.
func (r *remoteShard) frameErr(err error) error {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return remoteError(re.Msg)
	}
	return fmt.Errorf("shard %d: %w", r.shard, err)
}

// unknownOpErr rewrites the failure a daemon built before op existed answers
// with — its decoder rejects the frame ("unknown op N", as a 400 or as an
// error frame) — into what to do about it, naming the shard. Any other error
// passes through. The failure is a well-formed application answer, so call
// returns it without retrying another replica: every copy would say the same.
func (r *remoteShard) unknownOpErr(err error, op wire.Op, what string) error {
	if err != nil && strings.Contains(err.Error(), fmt.Sprintf("unknown op %d", op)) {
		return fmt.Errorf("shard %d daemon predates the %s op (upgrade daemons before coordinators): %w", r.shard, what, err)
	}
	return err
}

// maxFirstChunk bounds the first fetch of a neighbor stream. The expected
// share of the rank cap sizes it (core.ShardRows), but at a generous scale
// parameter the cap is the dataset while ω usually stops the scan early —
// rows carry coordinates, so fetching a shard's worth up front would be
// megabytes nobody reads. Past the first chunk, fetches double.
const maxFirstChunk = 256

func (r *remoteShard) Neighbors(ctx context.Context, q []float64, skip, expect int) shardStream {
	s := &remoteStream{r: r, ctx: ctx, q: q, skip: skip, buf: wire.GetStream(), ask: min(max(expect, 1), maxFirstChunk), first: make(chan error, 1)}
	// The first chunk is fetched here, off the caller's goroutine, so that
	// opening the S streams of a query costs one round trip, not S. The
	// channel has room for the one send, so the fetch never outlives ctx
	// waiting for a reader.
	go func() { s.first <- s.fetch() }()
	return s
}

// remoteStream reads a daemon's neighbor stream chunk by chunk into pooled
// storage. Fetched rows are kept for the life of the query — the filter set
// of the algorithm that reads the stream references their coordinates — and
// go back to the pool when the query releases the stream.
type remoteStream struct {
	r    *remoteShard
	ctx  context.Context
	q    []float64
	skip int

	buf   *wire.Stream // every row fetched so far, in stream order, with its coordinates
	pos   int          // buf.Rows[:pos] have been returned by Next
	ask   int          // size of the next fetch
	done  bool         // the shard holds no row past buf.Rows
	first chan error   // result of the fetch Neighbors started; nil once received
	err   error
}

// fetch appends the next chunk: up to s.ask rows after the last one held,
// resumed by its (distance, ID) key so that a write landing on the daemon
// between two chunks can neither repeat nor reorder a row.
func (s *remoteStream) fetch() error {
	held, after := len(s.buf.Rows), wire.Neighbor{ID: -1}
	if held > 0 {
		after = s.buf.Rows[held-1]
	}
	done, err := binaryCall(s.ctx, s.r, wire.AppendNeighborsRequest(nil, s.q, s.skip, after, s.ask), s.buf.Append)
	if err != nil {
		return s.r.unknownOpErr(err, wire.OpNeighbors, "neighbor stream")
	}
	// A stream that repeats or reorders rows would corrupt the merge silently;
	// a daemon that sends one is refused loudly.
	for _, nb := range s.buf.Rows[held:] {
		if after.ID >= 0 && !index.Before(after, nb) {
			return fmt.Errorf("shard %d sent neighbor (%v, %d) after (%v, %d): stream out of order", s.r.shard, nb.Dist, nb.ID, after.Dist, after.ID)
		}
		after = nb
	}
	if len(s.buf.Rows) == held && !done {
		return fmt.Errorf("shard %d sent an empty neighbor chunk that is not the last", s.r.shard)
	}
	s.done, s.ask = done, min(2*s.ask, wire.MaxNeighborRows)
	return nil
}

func (s *remoteStream) Next() (index.Neighbor, bool) {
	if s.first != nil && s.err == nil {
		select {
		case s.err = <-s.first:
			s.first = nil
		case <-s.ctx.Done():
			// first stays set: the fetch may still be appending, so the
			// storage is no longer this goroutine's to read — or to release.
			s.err = s.ctx.Err()
		}
	}
	// err is checked first, here and below: after a wait given up at
	// ctx.Done the first fetch may still be appending to buf.
	for s.err == nil && s.pos == len(s.buf.Rows) && !s.done {
		s.err = s.fetch()
	}
	if s.err != nil || s.pos == len(s.buf.Rows) {
		return index.Neighbor{}, false
	}
	s.pos++
	return s.buf.Rows[s.pos-1], true
}

// Point finds a returned row by its local ID, latest first: the caller asks
// for the row it was just handed.
func (s *remoteStream) Point(local int) []float64 {
	for i := s.pos - 1; i >= 0; i-- {
		if s.buf.Rows[i].ID == local {
			return s.buf.Points[i]
		}
	}
	return nil
}

func (s *remoteStream) Err() error { return s.err }

// Close implements shardStream. The fetched rows stay: the query's filter set
// references them, and the query's context stops a fetch still in flight.
func (s *remoteStream) Close() {}

// release returns the storage to its pool — unless the first fetch was never
// received (Next gave up at ctx.Done, or was never called): its goroutine may
// still be appending, so that storage is left to the garbage collector.
func (s *remoteStream) release() {
	if s.first == nil {
		s.buf.Release()
	}
}

func (r *remoteShard) Member(ctx context.Context, local int) ([]float64, error) {
	rows, err := binaryCall(ctx, r, wire.AppendPointsRequest(nil, []int{local}), wire.DecodePointsResponse)
	if err != nil || len(rows) != 1 {
		return nil, err
	}
	return rows[0], nil
}

func (r *remoteShard) KNN(ctx context.Context, q []float64, k int) ([]index.Neighbor, error) {
	lists, err := binaryCall(ctx, r, wire.AppendKNNBatchRequest(nil, []wire.KNNQuery{{Point: q, K: k, Skip: -1}}), wire.DecodeKNNBatchResponse)
	if err != nil {
		return nil, err
	}
	if len(lists) != 1 {
		return nil, fmt.Errorf("shard %d returned %d knn lists for 1 probe", r.shard, len(lists))
	}
	return lists[0], nil
}

func (r *remoteShard) CountBatch(ctx context.Context, probes []CountCloserQuery) ([]int, error) {
	counts, err := binaryCall(ctx, r, wire.AppendCountBatchRequest(nil, probes), wire.DecodeCountBatchResponse)
	return counts, r.unknownOpErr(err, wire.OpCountBatch, "count verification")
}

// describe reads the shard's description (GET /v1/shard/info): through call
// — any healthy replica, with retries — when replica < 0, and otherwise from
// that replica alone in one untraced, uncounted exchange, which is how the
// health loop judges each copy by its own answer.
func (r *remoteShard) describe(ctx context.Context, replica int) (d ShardDescription, err error) {
	decode := func(status int, ctype string, body []byte) error {
		if status != http.StatusOK {
			return jsonErr(status, ctype, body)
		}
		return json.Unmarshal(body, &d)
	}
	if replica < 0 {
		err = r.call(ctx, http.MethodGet, "/v1/shard/info", "", nil, decode)
		return d, err
	}
	status, ctype, frame, err := r.exchange(ctx, nil, replica, http.MethodGet, "/v1/shard/info", "", nil)
	if err == nil {
		err = decode(status, ctype, frame.B)
		frame.Release()
	}
	return d, err
}
