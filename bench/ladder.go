package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/vecmath"
	"repro/internal/wire"
)

// ladder is the traced pass: one goroutine drives the same queries through
// every layer boundary in turn, on the workload's data, recording a span
// around each call. A layer's tax is its boundary's time minus the boundary
// below it on the identical queries. The layers are measured from outside,
// through their public functions.
type ladder struct {
	cfg  config
	w    workload
	in   *inputs
	qs   []query
	rec  *recorder
	root int
	m    map[string]float64
	t    *tally

	// handed from one layer's step to the next
	bare      index.Index
	clean     *index.Overlay
	facadeDur []time.Duration
}

// dirtyDelta is the memtable rows and the tombstones of the dirty-overlay
// boundary: half the default compaction threshold each, the fullest delta a
// reader normally meets.
const dirtyDelta = 128

var sink float64 // keeps the micro-benchmarked calls alive

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// boundary is one layer's public entry point, called once per traced
// query.
type boundary struct {
	name string
	call func(i int, q query) error
}

// warmUp sends the first few queries through every boundary untimed:
// connections open, per-rank query engines are memoized, caches fill.
func (l *ladder) warmUp(qs []query, bs ...boundary) error {
	for _, b := range bs {
		for i, q := range qs[:min(len(qs), 16)] {
			if err := b.call(i, q); err != nil {
				return fmt.Errorf("%s: warm-up query %d: %w", b.name, i, err)
			}
		}
	}
	return nil
}

// interleaved times every boundary on every query under a span per call
// and returns the durations, one slice per boundary indexed by query. The
// boundaries take turns call by call, in a freshly shuffled order each
// round: a layer's tax is a difference of two of these slices, and two sets
// of calls spread over the same seconds share a slow stretch on a busy
// host, where two whole passes made seconds apart do not; the shuffle gives
// every boundary the same mix of predecessors (a call that follows an HTTP
// exchange starts with colder caches than one that follows a cursor drain).
// At any moment the boundaries are a fixed stride apart in the query list,
// so none of them finds its query's tree nodes and rows left in cache by
// the call before it (that warmth made an empty overlay look twice as fast
// as the index under it).
func (l *ladder) interleaved(group string, qs []query, bs ...boundary) ([][]time.Duration, error) {
	runtime.GC()
	parent := l.rec.begin(group, l.root, -1)
	durs := make([][]time.Duration, len(bs))
	for j := range durs {
		durs[j] = make([]time.Duration, len(qs))
	}
	order := rand.New(rand.NewSource(l.cfg.seed))
	for i := range qs {
		for _, j := range order.Perm(len(bs)) {
			qi := (i + j*len(qs)/len(bs)) % len(qs)
			id := l.rec.begin(bs[j].name, parent, qi)
			err := bs[j].call(qi, qs[qi])
			l.rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: query %d: %w", bs[j].name, qi, err)
			}
			durs[j][qi] = l.rec.dur(id)
		}
	}
	l.rec.end(parent)
	return durs, nil
}

// measure is warmUp then interleaved.
func (l *ladder) measure(group string, qs []query, bs ...boundary) ([][]time.Duration, error) {
	if err := l.warmUp(qs, bs...); err != nil {
		return nil, err
	}
	return l.interleaved(group, qs, bs...)
}

// perOp times fn, which performs ops operations, five times and returns the
// median nanoseconds per operation.
func (l *ladder) perOp(name string, ops int, fn func()) float64 {
	fn()
	var ns []float64
	for r := 0; r < 5; r++ {
		id := l.rec.begin(name, l.root, -1)
		fn()
		l.rec.end(id)
		ns = append(ns, float64(l.rec.dur(id))/float64(ops))
	}
	return stats.Median(ns)
}

func skipOf(q query) int {
	if q.id >= 0 {
		return q.id
	}
	return -1
}

func scalarL2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// runLadder measures every per-layer metric for one workload.
func runLadder(cfg config, w workload, in *inputs) (*pass, []span, map[string]float64, error) {
	l := &ladder{cfg: cfg, w: w, in: in, qs: in.queries[:min(w.traceN, len(in.queries))],
		rec: newRecorder(), m: make(map[string]float64), t: &tally{}}
	l.root = l.rec.begin("ladder", -1, -1)
	extra := make(map[string]float64)
	steps := []func() error{l.kernels, l.indexLayer, l.engineLayers, l.clusterLayers, l.writes}
	if w.name == "lib-lowdim" {
		steps = append(steps, func() error { return l.overhead(extra) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, nil, err
		}
	}
	l.rec.end(l.root)
	// What the pass spent outside every layer call: span bookkeeping, the
	// GC between groups, building the stacks.
	self := selfTimes(l.rec.spans)
	grouping := make([]bool, len(self))
	for _, sp := range l.rec.spans {
		if sp.Parent >= 0 {
			grouping[sp.Parent] = true
		}
	}
	var outside time.Duration
	for i, own := range self {
		if grouping[i] {
			outside += own
		}
	}
	extra["ladder_self_share"] = float64(outside) / float64(l.rec.dur(l.root))
	p := &pass{Metrics: l.m, Correct: l.t.failed == 0, Attempted: l.t.attempted, Failed: l.t.failed, Notes: l.t.notes}
	return p, l.rec.spans, extra, nil
}

// kernels times one distance evaluation at the workload's dimensionality:
// the dispatched kernel, a plain loop as its exhaustive baseline, and the
// float32 block kernel.
func (l *ladder) kernels() error {
	rows := l.in.points[:min(256, len(l.in.points))]
	const evals = 20000
	pair := func(i int) (int, int) { return i % len(rows), (i*7 + 1) % len(rows) }
	kernel := vecmath.KernelFor(vecmath.Euclidean{})
	l.m["vecmath.l2_ns_per_distance"] = l.perOp("vecmath.l2", evals, func() {
		for i := 0; i < evals; i++ {
			a, b := pair(i)
			sink += kernel(rows[a], rows[b])
		}
	})
	l.m["vecmath.l2_scalar_ns_per_distance"] = l.perOp("vecmath.l2_scalar", evals, func() {
		for i := 0; i < evals; i++ {
			a, b := pair(i)
			sink += scalarL2(rows[a], rows[b])
		}
	})
	block := vecmath.NewBlock(rows)
	q32 := make([][]float32, len(rows))
	for i, r := range rows {
		q32[i], _ = vecmath.Quantize32(r)
	}
	l.m["vecmath.block_l2_ns_per_distance"] = l.perOp("vecmath.block_l2", evals, func() {
		for i := 0; i < evals; i++ {
			a, b := pair(i)
			sink += block.SquaredL2(b, q32[a])
		}
	})
	return nil
}

// indexLayer times forward kNN on the bare back-end, through a clean
// overlay and through a dirty one, beside an exhaustive scan.
func (l *ladder) indexLayer() error {
	w, in := l.w, l.in
	metric := vecmath.Euclidean{}

	begin := time.Now()
	bare, err := harness.BuildBackend(string(w.backend), in.points, metric)
	if err != nil {
		return err
	}
	l.m["index.build_s"] = time.Since(begin).Seconds()
	l.bare = bare
	// The facade serves every dynamic back-end through an overlay, so the
	// layers above are timed on one too.
	l.clean = index.NewOverlay(bare)
	dirty := index.NewOverlay(bare)
	for i := 0; i < dirtyDelta; i++ {
		if _, err := dirty.Insert(in.inserts[i]); err != nil {
			return err
		}
		if !dirty.Delete(in.deletes[i]) {
			return fmt.Errorf("dirty overlay: delete target %d is not live", in.deletes[i])
		}
	}
	exhaustive, err := scan.New(in.points, metric)
	if err != nil {
		return err
	}

	knn := func(name string, ix index.Index) boundary {
		return boundary{name, func(_ int, q query) error {
			if nn := ix.KNN(q.point, w.k, skipOf(q)); len(nn) != w.k {
				return fmt.Errorf("kNN returned %d of %d neighbours", len(nn), w.k)
			}
			return nil
		}}
	}
	d, err := l.measure("index", l.qs, knn("index.knn", bare), knn("index.overlay_knn", l.clean), knn("index.overlay_dirty_knn", dirty))
	if err != nil {
		return err
	}
	l.m["index.knn_us"] = us(mean(d[0]))
	l.m["index.overlay_knn_us"] = us(mean(d[1]))
	l.m["index.overlay_dirty_knn_us"] = us(mean(d[2]))
	few := l.qs[:min(l.cfg.sz.exhaustive, len(l.qs))]
	if d, err = l.measure("index.exhaustive", few, knn("index.knn_exhaustive", exhaustive)); err != nil {
		return err
	}
	l.m["index.knn_exhaustive_us"] = us(mean(d[0]))
	return nil
}

// rknnInto adapts a client to a boundary, keeping the answers for the
// identity checks.
func rknnInto(name string, c client, k int, into [][]int) boundary {
	return boundary{name, func(i int, q query) error {
		ids, err := c.rknn(q, k)
		into[i] = ids
		return err
	}}
}

func (l *ladder) tax(name string, outer, inner []time.Duration) error {
	d, err := layerTax(outer, inner)
	l.m[name] = us(d)
	return err
}

// engineLayers times one engine at every boundary above the index: core on
// the overlay, the facade, a single-shard scatter, and the HTTP server as a
// bare handler, over a loopback socket as JSON, and as a binary frame.
func (l *ladder) engineLayers() error {
	w, in, n := l.w, l.in, len(l.qs)
	qr, err := core.NewQuerier(l.clean, core.Params{K: w.k, T: w.t, Plus: true})
	if err != nil {
		return err
	}
	stats := make([]core.Stats, n)
	coreAns := make([][]int, n)
	coreCall := func(i int, q query) error {
		var res *core.Result
		var err error
		if q.id >= 0 {
			res, err = qr.ByID(q.id)
		} else {
			res, err = qr.ByPoint(q.point)
		}
		if err == nil {
			stats[i], coreAns[i] = res.Stats, res.IDs
		}
		return err
	}
	// The cursor boundary drains to the depth core reports for the query,
	// so core answers every query once before anything is timed.
	for i, q := range l.qs {
		if err := coreCall(i, q); err != nil {
			return fmt.Errorf("core.rknn: query %d: %w", i, err)
		}
	}
	cursor := boundary{"index.cursor", func(i int, q query) error {
		c := l.clean.NewCursor(q.point, skipOf(q))
		for d := 0; d < stats[i].ScanDepth; d++ {
			if _, ok := c.Next(); !ok {
				return fmt.Errorf("cursor dry at depth %d of %d", d, stats[i].ScanDepth)
			}
		}
		return nil
	}}

	eng, err := repro.New(in.points, w.engineOptions()...)
	if err != nil {
		return err
	}
	// One shard holds the whole dataset, so S=1 must answer as the engine
	// does and its extra time is the pure scatter tax.
	s1, err := repro.NewSharded(in.points, 1, w.engineOptions()...)
	if err != nil {
		return err
	}
	h := server.New(eng).Handler()
	sys := &system{}
	defer sys.close()
	hc := newHTTPClient(sys.serve(h))

	facadeAns, s1Ans, handlerAns, httpAns, binAns := make([][]int, n), make([][]int, n), make([][]int, n), make([][]int, n), make([][]int, n)
	handler := boundary{"server.handler", func(i int, q query) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/rknn", bytes.NewReader(rknnBody(q, w.k)))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rw.Code, rw.Body.Bytes())
		}
		var out struct {
			IDs []int `json:"ids"`
		}
		err := json.Unmarshal(rw.Body.Bytes(), &out)
		handlerAns[i] = out.IDs
		return err
	}}
	binary := boundary{"server.binary", func(i int, q query) error {
		var frame []byte
		if q.id >= 0 {
			frame = wire.AppendRkNNIDRequest(nil, q.id, w.k)
		} else {
			frame = wire.AppendRkNNPointRequest(nil, q.point, w.k)
		}
		resp, err := hc.roundTrip(http.MethodPost, "/v1/binary", wire.ContentType, frame, http.StatusOK)
		if err != nil {
			return err
		}
		binAns[i], _, err = wire.DecodeRkNNResponse(resp)
		return err
	}}
	facadeKNN := boundary{"facade.knn", func(_ int, q query) error {
		_, err := eng.KNN(q.point, w.k)
		return err
	}}
	d, err := l.measure("engine", l.qs,
		boundary{"core.rknn", coreCall}, cursor, rknnInto("facade.rknn", libClient{eng}, w.k, facadeAns), facadeKNN,
		rknnInto("scatter.s1", libClient{s1}, w.k, s1Ans), handler, rknnInto("server.http", hc, w.k, httpAns), binary)
	if err != nil {
		return err
	}
	coreDur, scanDur, facadeDur, knnDur, s1Dur, handlerDur, httpDur, binDur := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
	l.facadeDur = facadeDur
	l.t.identical("facade against core", facadeAns, coreAns)
	l.t.identical("ShardedSearcher S=1 against Searcher", s1Ans, facadeAns)
	l.t.identical("handler against Searcher", handlerAns, facadeAns)
	l.t.identical("HTTP against Searcher", httpAns, facadeAns)
	l.t.identical("binary frame against Searcher", binAns, facadeAns)

	var sum core.Stats
	for _, s := range stats {
		sum.ScanDepth += s.ScanDepth
		sum.FilterSize += s.Candidates()
		sum.LazyAccepts += s.LazyAccepts
		sum.LazyRejects += s.LazyRejects
		sum.Verified += s.Verified
		sum.DistanceComps += s.DistanceComps
	}
	per := func(total int) float64 { return float64(total) / float64(n) }
	l.m["core.rknn_us"] = us(mean(coreDur))
	l.m["core.scan_depth"] = per(sum.ScanDepth)
	l.m["core.candidates"] = per(sum.FilterSize)
	l.m["core.lazy_accepts"] = per(sum.LazyAccepts)
	l.m["core.lazy_rejects"] = per(sum.LazyRejects)
	l.m["core.verified"] = per(sum.Verified)
	l.m["core.witness_dist_comps"] = per(int(sum.DistanceComps))
	l.m["core.pruning_ratio"] = float64(sum.LazyAccepts+sum.LazyRejects) / float64(sum.FilterSize)
	l.m["index.cursor_ns_per_neighbor"] = float64(mean(scanDur)) / per(sum.ScanDepth)
	// core's three stages: the scan is the cursor drained alone, the
	// verification is its kNN probes at the index's price, and the filter
	// (witness counting) is what remains.
	l.m["core.scan_us"] = us(mean(scanDur))
	l.m["core.verify_us"] = l.m["core.verified"] * l.m["index.overlay_knn_us"]
	l.m["core.filter_us"] = l.m["core.rknn_us"] - l.m["core.scan_us"] - l.m["core.verify_us"]
	l.m["core.rknn_per_knn"] = l.m["core.rknn_us"] / l.m["index.knn_us"]

	l.m["facade.rknn_us"] = us(mean(facadeDur))
	l.m["facade.knn_us"] = us(mean(knnDur))
	l.m["scatter.s1_rknn_us"] = us(mean(s1Dur))
	l.m["server.handler_rknn_us"] = us(mean(handlerDur))
	l.m["server.http_rknn_us"] = us(mean(httpDur))
	l.m["server.binary_rknn_us"] = us(mean(binDur))
	for _, t := range []struct {
		name         string
		outer, inner []time.Duration
	}{
		{"facade.tax_us", facadeDur, coreDur},
		{"scatter.s1_tax_us", s1Dur, facadeDur},
		{"server.json_tax_us", handlerDur, facadeDur},
		{"server.socket_tax_us", httpDur, handlerDur},
	} {
		if err := l.tax(t.name, t.outer, t.inner); err != nil {
			return err
		}
	}
	return sys.close()
}

// clusterLayers times the S=3 scatter in process, the same scatter over
// the network, and the HTTP front door on top, and counts the RPCs between
// them.
func (l *ladder) clusterLayers() error {
	w, in, n := l.w, l.in, len(l.qs)
	s3, err := repro.NewSharded(in.points, shards, w.engineOptions()...)
	if err != nil {
		return err
	}
	sys := &system{}
	defer sys.close()
	ct := &countingTransport{keep: true, base: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 32}}
	co, err := startCluster(sys, w, in.points, ct)
	if err != nil {
		return err
	}
	hc := newHTTPClient(sys.serve(server.New(co).Handler()))

	s3Ans, coAns, frontAns := make([][]int, n), make([][]int, n), make([][]int, n)
	viaCo := rknnInto("coordinator.rknn", libClient{co}, w.k, coAns)
	counted := boundary{viaCo.name, func(i int, q query) error {
		// The front door's queries cross the same transport; only the
		// coordinator boundary's own RPCs are counted.
		ct.on.Store(true)
		defer ct.on.Store(false)
		return viaCo.call(i, q)
	}}
	bs := []boundary{rknnInto("scatter.s3", libClient{s3}, w.k, s3Ans), counted, rknnInto("coordinator.front_http", hc, w.k, frontAns)}
	if err := l.warmUp(l.qs, bs...); err != nil {
		return err
	}
	ct.reset()
	d, err := l.interleaved("cluster", l.qs, bs...)
	if err != nil {
		return err
	}
	s3Dur, coDur, frontDur := d[0], d[1], d[2]
	l.t.identical("Coordinator against ShardedSearcher S=3", coAns, s3Ans)
	l.t.identical("front door against ShardedSearcher S=3", frontAns, s3Ans)

	l.m["scatter.s3_rknn_us"] = us(mean(s3Dur))
	l.m["scatter.s3_slowdown"] = float64(mean(s3Dur)) / float64(mean(l.facadeDur))
	l.m["coordinator.rknn_us"] = us(mean(coDur))
	l.m["coordinator.front_http_rknn_us"] = us(mean(frontDur))
	if err := l.tax("coordinator.network_tax_us", coDur, s3Dur); err != nil {
		return err
	}
	per := func(total int64) float64 { return float64(total) / float64(n) }
	l.m["coordinator.rpcs_per_query"] = per(ct.calls.Load())
	l.m["coordinator.req_bytes_per_query"] = per(ct.reqBytes.Load())
	l.m["coordinator.resp_bytes_per_query"] = per(ct.respBytes.Load())
	l.m["coordinator.retries"] = float64(ct.failures.Load())
	l.m["wire.bytes_per_query"] = per(ct.reqBytes.Load() + ct.respBytes.Load())

	// The scatter is transport-blind (checked above), so the frames the
	// coordinator sent count the in-process scatter's work too: every
	// cross-shard candidate is one kNN probe on each shard.
	probes, answers := 0, 0
	for _, body := range ct.bodies {
		if req, err := wire.DecodeRequest(body); err == nil && req.Op == wire.OpKNNBatch {
			probes += len(req.KNN)
		}
	}
	for _, ids := range s3Ans {
		answers += len(ids)
	}
	l.m["scatter.knn_probes_per_query"] = per(int64(probes))
	l.m["scatter.candidates_per_query"] = per(int64(probes)) / shards
	l.m["scatter.useful_share"] = float64(answers) * shards / float64(max(probes, 1))

	// k-way merge of S per-shard lists of k, as cross-shard verification
	// does once per candidate.
	few := l.qs[:min(64, n)]
	lists := make([][][]index.Neighbor, len(few))
	for i, q := range few {
		lists[i] = make([][]index.Neighbor, shards)
		for j, nb := range l.bare.KNN(q.point, shards*w.k, skipOf(q)) {
			lists[i][j%shards] = append(lists[i][j%shards], nb)
		}
	}
	l.m["scatter.merge_ns"] = l.perOp("scatter.merge", len(few), func() {
		for _, per := range lists {
			sink += float64(len(core.MergeKNN(per, w.k, nil)))
		}
	})
	l.codec(max(probes/shards/n, 1), s3Ans)
	return sys.close()
}

// codec times the four frames of one coordinator query at the measured
// mean candidate count.
func (l *ladder) codec(candidates int, answers [][]int) {
	w := l.w
	few := l.qs[:min(64, len(l.qs))]
	var buf []byte
	l.m["wire.rknn_req_encode_ns"] = l.perOp("wire.rknn_req_encode", len(few), func() {
		for _, q := range few {
			buf = wire.AppendRkNNPointRequest(buf[:0], q.point, w.k)
		}
	})
	frames := make([][]byte, len(few))
	for i := range few {
		frames[i] = wire.AppendRkNNResponse(nil, answers[i], wire.Stats{})
	}
	l.m["wire.rknn_resp_decode_ns"] = l.perOp("wire.rknn_resp_decode", len(few), func() {
		for _, f := range frames {
			ids, _, _ := wire.DecodeRkNNResponse(f)
			sink += float64(len(ids))
		}
	})
	probes := make([]wire.KNNQuery, candidates)
	lists := make([][]wire.Neighbor, candidates)
	for i := range probes {
		probes[i] = wire.KNNQuery{Point: few[i%len(few)].point, K: w.k, Skip: -1}
		lists[i] = make([]wire.Neighbor, w.k)
	}
	l.m["wire.knnbatch_encode_ns"] = l.perOp("wire.knnbatch_encode", 64, func() {
		for i := 0; i < 64; i++ {
			buf = wire.AppendKNNBatchRequest(buf[:0], probes)
		}
	})
	resp := wire.AppendKNNBatchResponse(nil, lists)
	l.m["wire.knnbatch_decode_ns"] = l.perOp("wire.knnbatch_decode", 64, func() {
		for i := 0; i < 64; i++ {
			got, _ := wire.DecodeKNNBatchResponse(resp)
			sink += float64(len(got))
		}
	})
}

// writes times inserts and deletes through the facade and through the
// durable wrapper on identical inputs, then the store's snapshot, recovery
// and footprint.
func (l *ladder) writes() error {
	w, in, burst := l.w, l.in, l.cfg.sz.writeBurst
	points := in.inserts[dirtyDelta : dirtyDelta+burst]
	targets := in.deletes[dirtyDelta : dirtyDelta+burst]
	timeWrites := func(prefix string, ins func([]float64) (int, error), del func(int) (bool, error)) (insDur, delDur time.Duration, err error) {
		group := l.rec.begin(prefix+".writes", l.root, -1)
		defer l.rec.end(group)
		for i := range points {
			id := l.rec.begin(prefix+".insert", group, i)
			_, err = ins(points[i])
			l.rec.end(id)
			if err != nil {
				return 0, 0, err
			}
			insDur += l.rec.dur(id)
			id = l.rec.begin(prefix+".delete", group, i)
			var ok bool
			ok, err = del(targets[i])
			l.rec.end(id)
			if err == nil && !ok {
				err = fmt.Errorf("%s: delete target %d is not live", prefix, targets[i])
			}
			if err != nil {
				return 0, 0, err
			}
			delDur += l.rec.dur(id)
		}
		return insDur / time.Duration(burst), delDur / time.Duration(burst), nil
	}

	plain, err := repro.New(in.points, w.engineOptions()...)
	if err != nil {
		return err
	}
	runtime.GC()
	plainIns, plainDel, err := timeWrites("facade", plain.Insert, plain.Delete)
	if err != nil {
		return err
	}
	l.m["facade.insert_us"], l.m["facade.delete_us"] = us(plainIns), us(plainDel)

	eng, err := repro.New(in.points, w.engineOptions()...)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(l.cfg.tmp, "ladder-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := repro.NewDurable(dir, eng, repro.WithWALSync(1))
	if err != nil {
		return err
	}
	defer d.Close()
	walBefore, err := dirBytes(dir, "wal-*")
	if err != nil {
		return err
	}
	runtime.GC()
	durIns, _, err := timeWrites("persist", d.Insert, d.Delete)
	if err != nil {
		return err
	}
	walAfter, err := dirBytes(dir, "wal-*")
	if err != nil {
		return err
	}
	l.m["persist.durable_insert_us"] = us(durIns)
	l.m["persist.wal_tax_us"] = us(durIns - plainIns)
	l.m["persist.wal_bytes_per_write"] = float64(walAfter-walBefore) / float64(2*burst)

	// Keep writing until the delta crosses the compaction threshold, then
	// wait for the background fold.
	for i := dirtyDelta + burst; d.Compactions() == 0 && i < len(in.inserts) && i < len(in.deletes); i++ {
		if _, err := d.Insert(in.inserts[i]); err != nil {
			return err
		}
		if _, err := d.Delete(in.deletes[i]); err != nil {
			return err
		}
	}
	for wait := time.Now(); d.Compactions() == 0 && time.Since(wait) < 10*time.Second; {
		time.Sleep(5 * time.Millisecond)
	}
	l.m["index.compactions"] = float64(d.Compactions())
	l.m["index.memtable_len_end"] = float64(d.MemtableLen())

	begin := time.Now()
	if err := d.Snapshot(); err != nil {
		return err
	}
	l.m["persist.snapshot_s"] = time.Since(begin).Seconds()
	disk, err := dirBytes(dir, "*")
	if err != nil {
		return err
	}
	l.m["persist.disk_bytes_per_point"] = float64(disk) / float64(d.Len())
	wantLen := d.Len()
	if err := d.Close(); err != nil {
		return err
	}
	begin = time.Now()
	re, err := repro.Open(dir, repro.WithWALSync(1))
	if err != nil {
		return err
	}
	l.m["persist.reopen_s"] = time.Since(begin).Seconds()
	l.t.attempted++
	if re.Len() != wantLen {
		l.t.failf("reopened ladder store holds %d points, had %d", re.Len(), wantLen)
	}
	return re.Close()
}

// dirBytes sums the sizes of the files in dir matching pattern.
func dirBytes(dir, pattern string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// overhead measures what recording spans costs: the lib-lowdim load runs
// in short alternating stretches, bare and with a span around every facade
// call, and the medians are compared. End-to-end numbers never come from a
// traced run.
func (l *ladder) overhead(extra map[string]float64) error {
	sys, err := buildSystem(l.w, l.in, l.cfg.tmp)
	if err != nil {
		return err
	}
	defer sys.close()
	window := l.cfg.window / 10
	var qps [2][]float64
	for rep := 0; rep < 3; rep++ {
		for i, traced := range []bool{false, true} {
			lm, err := runLoad(sys, l.w, l.in, l.cfg.seed, l.cfg.clients, window/4, window, traced).metrics()
			if err != nil {
				return err
			}
			if lm.failed > 0 {
				return errors.New("overhead run: queries failed")
			}
			qps[i] = append(qps[i], lm.qps)
		}
	}
	bare, traced := stats.Median(qps[0]), stats.Median(qps[1])
	extra["untraced_rknn_qps"], extra["traced_rknn_qps"] = bare, traced
	extra["trace_overhead_share"] = 1 - traced/bare
	return sys.close()
}
