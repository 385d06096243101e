// Package lsh implements Euclidean locality-sensitive hashing (the E2LSH
// scheme of Datar et al., in the lineage of Gionis/Indyk/Motwani cited as
// [15] by the paper) as an *approximate* forward-kNN ranking.
//
// The paper's claim (iii) for RDT is that the algorithm "is able to make
// effective use of approximate neighbor rankings, and thus can be supported
// by recent efficient similarity search methods" such as LSH. This package
// makes that claim testable: it satisfies the index.Index contract but only
// streams the candidates colliding with the query in at least one of its
// hash tables, ranked by true distance. Queries through it are approximate;
// the reproduction's tests, the approxrankings example, the experiments
// harness and the ablation bench quantify the recall RDT+ retains on top of
// it. It is no serving back-end: every engine the facade builds is exact
// (DESIGN.md, "Approximate rankings (reproduction only)"), so the index is
// built once over a fixed point set and takes no inserts.
//
// Each of L tables hashes a point to the concatenation of M quantized
// random projections h(x) = ⌊(a·x + b)/w⌋. The bucket width w is tuned at
// build time from a sample of nearest-neighbor distances so that near
// neighbors tend to collide.
package lsh

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

// Options configures table count and hash width.
type Options struct {
	// Tables is L, the number of independent hash tables. More tables
	// raise recall and cost.
	Tables int
	// Hashes is M, the number of projections concatenated per table.
	// More hashes shrink buckets (higher precision, lower recall).
	Hashes int
	// Width is the quantization width w; 0 selects it automatically
	// from a sample of nearest-neighbor distances.
	Width float64
	// Seed drives projection sampling.
	Seed int64
}

// DefaultOptions returns a configuration that reaches high candidate recall
// on the surrogate workloads while probing a small fraction of the data.
func DefaultOptions() Options {
	return Options{Tables: 12, Hashes: 6, Seed: 1}
}

func (o Options) validate() error {
	if o.Tables <= 0 {
		return fmt.Errorf("lsh: Tables must be positive, got %d", o.Tables)
	}
	if o.Hashes <= 0 {
		return fmt.Errorf("lsh: Hashes must be positive, got %d", o.Hashes)
	}
	if o.Width < 0 || math.IsNaN(o.Width) || math.IsInf(o.Width, 1) {
		return fmt.Errorf("lsh: Width must be non-negative and finite, got %v", o.Width)
	}
	return nil
}

// table is one hash table: M projection vectors with offsets, and the
// bucket map.
type table struct {
	projs   [][]float64
	offsets []float64
	buckets map[string][]int
}

// Index is an approximate similarity index over the rows its
// index.RowStore holds. It implements index.Index with candidate-set
// semantics: query results cover only hash collisions.
type Index struct {
	index.RowStore
	width  float64
	tables []table
}

var _ index.Index = (*Index)(nil)

// New builds the hash tables over points. Only the Euclidean metric is
// supported (the projections quantize L2 geometry).
func New(points [][]float64, metric vecmath.Metric, opts Options) (*Index, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if _, ok := metric.(vecmath.Euclidean); !ok {
		return nil, errors.New("lsh: only the Euclidean metric is supported")
	}
	ix := new(Index)
	if err := ix.Init(points, metric); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	ix.width = opts.Width
	if ix.width == 0 {
		ix.width = autoWidth(points, metric, rng)
	}

	ix.tables = make([]table, opts.Tables)
	var keyBuf []byte
	for ti := range ix.tables {
		t := table{
			projs:   make([][]float64, opts.Hashes),
			offsets: make([]float64, opts.Hashes),
			buckets: make(map[string][]int),
		}
		for h := 0; h < opts.Hashes; h++ {
			a := make([]float64, ix.Dim())
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			t.projs[h] = a
			t.offsets[h] = rng.Float64() * ix.width
		}
		for id, p := range points {
			keyBuf = t.appendKey(keyBuf[:0], p, ix.width)
			t.buckets[string(keyBuf)] = append(t.buckets[string(keyBuf)], id)
		}
		ix.tables[ti] = t
	}
	return ix, nil
}

// DegenerateWidth is the documented bucket-width floor used when automatic
// width selection finds no positive nearest-neighbor distance in its sample
// (duplicate-only or constant datasets). Any positive width behaves
// identically there — exact duplicates share every bucket regardless — so
// the floor keeps such datasets servable instead of failing the build.
const DegenerateWidth = 1.0

// autoWidth picks w as a multiple of the median nearest-neighbor distance
// of a sample, so that true near neighbors usually share a bucket cell.
// Degenerate samples (all distances zero, or overflow to +Inf) fall back to
// the documented DegenerateWidth floor rather than an arbitrary silent
// value.
func autoWidth(points [][]float64, metric vecmath.Metric, rng *rand.Rand) float64 {
	const sample = 64
	n := len(points)
	dists := make([]float64, 0, sample)
	for i := 0; i < sample; i++ {
		a := points[rng.Intn(n)]
		best := math.Inf(1)
		// Nearest among a random subsample: cheap and close enough for
		// a bucket-width heuristic.
		for j := 0; j < 128; j++ {
			b := points[rng.Intn(n)]
			if d := metric.Distance(a, b); d > 0 && d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			dists = append(dists, best)
		}
	}
	if len(dists) == 0 {
		return DegenerateWidth // constant/duplicate-only data
	}
	sort.Float64s(dists)
	w := 4 * dists[len(dists)/2]
	if !(w > 0) || math.IsInf(w, 1) {
		return DegenerateWidth
	}
	return w
}

// appendKey appends the bucket key of p — the concatenated quantized
// projections, each encoded as all 8 little-endian bytes of its int64 value
// so that hash values 2^32 apart never alias into one bucket — and returns
// the extended buffer.
func (t *table) appendKey(buf []byte, p []float64, width float64) []byte {
	for h, a := range t.projs {
		v := int64(math.Floor((vecmath.Dot(a, p) + t.offsets[h]) / width))
		buf = append(buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return buf
}

// Width returns the quantization width in effect.
func (ix *Index) Width() float64 { return ix.width }

// dedup is the pooled per-query candidate-collection state: the seen set,
// the collected ID list, and the key scratch buffer. Candidate gathering is
// the hot path of every query; recycling the set keeps per-query garbage
// near zero under a steady serving stream (mirroring the pooled filter sets
// in internal/core).
type dedup struct {
	seen map[int]struct{}
	out  []int
	key  []byte
}

var dedupPool = sync.Pool{New: func() any { return &dedup{seen: make(map[int]struct{})} }}

// release clears and returns the state to the pool. clear keeps the map's
// buckets allocated, which is exactly the win: a warmed set absorbs the
// next query's candidates without growing.
func (d *dedup) release() {
	clear(d.seen)
	d.out = d.out[:0]
	dedupPool.Put(d)
}

// candidates collects into d the IDs colliding with q in any table,
// deduplicated, excluding skipID and tombstoned points. The returned slice
// is owned by d and valid until d.release.
func (ix *Index) candidates(d *dedup, q []float64, skipID int) []int {
	for ti := range ix.tables {
		t := &ix.tables[ti]
		d.key = t.appendKey(d.key[:0], q, ix.width)
		for _, id := range t.buckets[string(d.key)] {
			if _, dup := d.seen[id]; dup || ix.Skip(id, skipID) {
				continue
			}
			d.seen[id] = struct{}{}
			d.out = append(d.out, id)
		}
	}
	return d.out
}

// NewCursor implements index.Index over the candidate set: the stream is in
// exact ascending distance order but covers only hash collisions, so it may
// end before the dataset is exhausted — the approximate-ranking regime the
// paper's claim (iii) is about.
func (ix *Index) NewCursor(q []float64, skipID int) index.Cursor {
	d := dedupPool.Get().(*dedup)
	cands := ix.candidates(d, q, skipID)
	ready := pqueue.NewNearest(len(cands))
	for _, id := range cands {
		ready.Push(ix.Dist(q, ix.Point(id)), id)
	}
	d.release()
	return &cursor{ready: ready}
}

type cursor struct{ ready *pqueue.Min[int] }

// Close implements index.Cursor; the cursor owns nothing that outlives it.
func (c *cursor) Close() {}

func (c *cursor) Next() (index.Neighbor, bool) {
	it, ok := c.ready.Pop()
	return index.Neighbor{ID: it.Value, Dist: it.Priority}, ok
}

// KNN implements index.Index over the candidate set (approximate): the
// first k of the cursor's stream.
func (ix *Index) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 {
		return nil
	}
	return index.Collect(ix.NewCursor(q, skipID), min(k, ix.Len()))
}

// CountCloser implements index.Index over the candidate set KNN ranks
// (approximate): counting the candidates strictly closer than r is the same
// test as comparing the k-th candidate distance with r, so verification by
// count settles every candidate exactly as verification by KNN did.
func (ix *Index) CountCloser(q []float64, r float64, limit, skipID int, dead *index.Tombstones) int {
	if limit <= 0 {
		return 0
	}
	d := dedupPool.Get().(*dedup)
	defer d.release()
	count := 0
	for _, id := range ix.candidates(d, q, skipID) {
		if dead.Has(id) {
			continue
		}
		if ix.Dist(q, ix.Point(id)) < r {
			if count++; count == limit {
				break
			}
		}
	}
	return count
}
