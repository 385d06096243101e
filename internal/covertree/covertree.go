// Package covertree implements a simplified cover tree (Beygelzimer, Kakade,
// Langford 2006; simplified single-node-per-point variant following Izbicki
// and Shelton 2015) over an arbitrary metric, with incremental
// nearest-neighbor traversal, batch kNN, bounded strict counts, and dynamic
// insert and delete.
//
// The paper under reproduction uses the cover tree as the incremental
// forward-kNN back-end for its low- and medium-dimensional datasets
// (Section 7.1), precisely because the structure needs only metric
// properties — no coordinate-wise bounding geometry — and supports the
// expanding ring search RDT is built on.
//
// # Invariants
//
// Every node n at integer level ℓ(n) satisfies
//
//  1. covering: every child c has d(n, c) ≤ covdist(n) = 2^ℓ(n), and
//     ℓ(c) < ℓ(n);
//  2. bounding: MaxDist(n) is an upper bound on d(n, x) for every
//     descendant point x of n.
//
// Query correctness relies only on these two; the classic separation
// invariant is a performance property maintained heuristically by the
// insertion rule (each point descends to its nearest covering child).
//
// # Building
//
// Insert threads one point in at a time. New builds on every core: it
// inserts a prefix of the points one after another, routes the rest through
// that prefix tree in parallel by the same rule, and inserts each group of
// points that stops at the same prefix node on a worker of its own (build).
// The tree depends only on the points, never on the number of cores.
package covertree

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

// node is one point of the tree. row is the address of the point's first
// coordinate — where t.Point(id) begins — so a query reads a child's
// row from the node it already holds, not from the ID→row table. IDs and
// levels are 32 bits, as the structure codec writes them (checkIDSpan).
type node struct {
	row      *float64
	maxDist  float64
	id       int32
	level    int32
	children []*node
}

func (n *node) covdist() float64 { return math.Exp2(float64(n.level)) }

// rowOf returns n's point.
func (t *Tree) rowOf(n *node) []float64 { return unsafe.Slice(n.row, t.Dim()) }

// newNode returns a node for point id, whose row is p.
func newNode(id int, p []float64, level int32) *node {
	return &node{row: &p[0], id: int32(id), level: level}
}

// checkIDSpan refuses a tree of more than math.MaxInt32 IDs: past it a node
// ID would wrap, as it would in the structure codec and in a shard map.
func checkIDSpan(span int) error {
	if span > math.MaxInt32 {
		return fmt.Errorf("covertree: %d ids pass %d, the most a tree can name", span, math.MaxInt32)
	}
	return nil
}

// Tree is a cover tree over the rows its index.RowStore holds. It
// implements index.Index and index.Dynamic. Readers may run concurrently;
// mutation requires external synchronization.
//
// Ownership: a node is written only by the tree that allocated it since
// that tree's last Clone. Clone copies nothing; it marks both sides as
// sharing their nodes, and from then on an insertion into either copies the
// path it is about to change (insertID). Rows and tombstones follow the
// store's one rule (index.RowStore.CloneInto). A tree nobody has cloned
// builds in place.
type Tree struct {
	index.RowStore
	root *node

	// sharedNodes is atomic because Clone sets it on a tree that concurrent
	// readers, and a second Clone, may hold. It never clears: no node says
	// which tree allocated it, so a tree that once shared its nodes copies
	// the path of every later insertion.
	sharedNodes atomic.Bool
}

var _ index.Cloner = (*Tree)(nil)

// prefixLen is how many points a build inserts one after another, in ID
// order, before it routes the rest through them (build). A tree of at most
// prefixLen points is the one repeated insertion builds, node for node.
const prefixLen = 4096

// New builds a cover tree over points on every core (build). The points
// slice is retained by reference (index.RowsOf) and never written. The
// metric must satisfy the triangle inequality.
func New(points [][]float64, metric vecmath.Metric) (*Tree, error) {
	return build(points, metric, prefixLen)
}

// build is New with the prefix length as a parameter, so small inputs can
// take the routed path too. It builds in four phases:
//
//  1. prefix: points 0 … prefix−1 are inserted one after another, in ID
//     order (insertID);
//  2. route: every later point walks the prefix tree read-only by
//     insertion's own rule (nearestCovering) down to the node it would
//     attach to, on every core; the largest distance each prefix node saw
//     becomes its maxDist, and the root's level, which routing never reads,
//     then rises once, to cover the farthest point;
//  3. group: the routed points, grouped by attachment node and in ID order
//     within each group, are inserted from their attachment node (descend),
//     one group per worker at a time;
//  4. lay out (layOut).
//
// No prefix child of an attachment node covers a point of its group, so a
// group's insertions write only that node and the nodes they create: groups
// are disjoint and need no lock. Each group's result depends only on the
// prefix tree and its own points, so the tree is the same on any number of
// cores and under any schedule.
func build(points [][]float64, metric vecmath.Metric, prefix int) (*Tree, error) {
	t, err := newTree(points, metric)
	if err != nil {
		return nil, err
	}
	for id := range min(prefix, len(points)) {
		t.insertID(id)
	}
	if len(points) > prefix {
		t.insertRouted(prefix)
	}
	t.layOut()
	return t, nil
}

// newTree validates points and metric for New and Restore and returns a
// tree that holds the points and no node yet.
func newTree(points [][]float64, metric vecmath.Metric) (*Tree, error) {
	t := new(Tree)
	if err := t.Init(points, metric); err != nil {
		return nil, err
	}
	if !metric.Metricity() {
		return nil, errors.New("covertree: metric must satisfy the triangle inequality")
	}
	return t, checkIDSpan(len(points))
}

// routeBlock is how many points a routing worker claims at a time.
const routeBlock = 64

// insertRouted runs build's route and group phases on a tree that holds
// points 0 … prefix−1, inserting every later point.
func (t *Tree) insertRouted(prefix int) {
	rows := t.Rows()
	byID := make([]*node, prefix) // the prefix nodes, by ID
	for stack := []*node{t.root}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = append(stack[:len(stack)-1], n.children...)
		byID[n.id] = n
	}

	// Route: point prefix+i attaches to node attach[i], at dist[i] from it.
	// Each worker keeps the largest distance it measured at each prefix
	// node, indexed by ID.
	attach := make([]int32, len(rows)-prefix)
	dist := make([]float64, len(rows)-prefix)
	var claimed atomic.Int64
	reach := onEveryCore(func() []float64 {
		far := make([]float64, prefix)
		s := new(chunkScratch)
		for {
			lo := prefix + int(claimed.Add(routeBlock)) - routeBlock
			if lo >= len(rows) {
				return far
			}
			for id := lo; id < min(lo+routeBlock, len(rows)); id++ {
				p := rows[id]
				cur, d := t.root, t.Dist(p, t.rowOf(t.root))
				for {
					far[cur.id] = max(far[cur.id], d)
					best, bestDist := t.nearestCovering(p, cur.children, s)
					if best < 0 {
						break
					}
					cur, d = cur.children[best], bestDist
				}
				attach[id-prefix], dist[id-prefix] = cur.id, d
			}
		}
	})
	for _, far := range reach {
		for id, d := range far {
			byID[id].maxDist = max(byID[id].maxDist, d)
		}
	}
	// Every prefix point lies within the root's cover radius, so a maxDist
	// past it is a routed point's: raise the root once, as insertID would
	// have for the farthest of them.
	if t.root.maxDist > t.root.covdist() {
		t.root.level = levelFor(t.root.maxDist)
	}

	// Group: a counting sort by attachment node; the points of node a are
	// prefix+order[start[a]:start[a+1]], in ID order.
	start := make([]int32, prefix+1)
	for _, a := range attach {
		start[a+1]++
	}
	for a := range prefix {
		start[a+1] += start[a]
	}
	order := make([]int32, len(attach))
	fill := slices.Clone(start[:prefix])
	for i, a := range attach {
		order[fill[a]] = int32(i)
		fill[a]++
	}
	claimed.Store(0)
	onEveryCore(func() any {
		s := new(chunkScratch)
		for a := int(claimed.Add(1)) - 1; a < prefix; a = int(claimed.Add(1)) - 1 {
			for _, i := range order[start[a]:start[a+1]] {
				t.descend(byID[a], dist[i], prefix+int(i), false, s)
			}
		}
		return nil
	})
}

// onEveryCore runs work on GOMAXPROCS goroutines and returns what each
// returned, once all have.
func onEveryCore[T any](work func() T) []T {
	out := make([]T, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = work()
		}()
	}
	wg.Wait()
	return out
}

// layOut moves the tree's nodes into one slab in which every node's
// children sit side by side, and points each children list at a window of
// one pointer array. The blocks are laid down breadth first, so the slab
// itself is the queue of the walk; the window of slab node i's children
// holds &slab[a..b), and sits at ptrs[a-1 : b-1], as no node but the root
// is anyone's child. Each window's capacity is clipped to its length, so an
// in-place insertion's append copies the list out instead of writing over
// the next node's. The slab is one allocation, live while any of its nodes
// is: path copies share it and never grow it, and nodes inserted later are
// allocated one at a time. New and Restore call it once, before the tree
// is handed out; it needs every point to have its node.
func (t *Tree) layOut() {
	if t.root == nil {
		return
	}
	slab := make([]node, t.IDSpan())
	ptrs := make([]*node, len(slab)-1)
	slab[0] = *t.root
	next := 1
	for i := 0; i < next; i++ {
		n := &slab[i]
		if len(n.children) == 0 {
			continue
		}
		a, b := next, next+len(n.children)
		for j, c := range n.children {
			slab[a+j] = *c
			ptrs[a+j-1] = &slab[a+j]
		}
		n.children = ptrs[a-1 : b-1 : b-1]
		next = b
	}
	t.root = &slab[0]
}

// Insert implements index.Dynamic. (Delete is the store's tombstone: the
// point keeps serving as a routing object, so the covering invariant is
// never disturbed, and every query form skips it.)
func (t *Tree) Insert(p []float64) (int, error) {
	if err := checkIDSpan(t.IDSpan() + 1); err != nil {
		return 0, err
	}
	id, err := t.Append(p)
	if err != nil {
		return 0, err
	}
	t.insertID(id)
	return id, nil
}

// Clone implements index.Cloner in O(1): the clone shares the nodes with t,
// and both are marked as sharing them (see Tree), and the rows and
// tombstones by the store's rule, so either may be extended afterwards and
// neither is ever observable through the other. Clone reads t like any
// query and may run beside queries and other Clones, not beside a mutation
// of t.
func (t *Tree) Clone() index.Dynamic {
	t.sharedNodes.Store(true)
	c := &Tree{root: t.root}
	t.CloneInto(&c.RowStore)
	c.sharedNodes.Store(true)
	return c
}

// insertID threads the point with the given id into the tree. On a tree
// that shares its nodes it writes to copies only: the root, then each child
// it descends into, is copied before it is touched — the node, and its
// children slice at the moment an entry is replaced or appended — so the
// raised root level, the widened maxDist bounds and the new leaf exist in
// this tree alone. The tree that results is node for node the one an
// in-place insertion builds.
func (t *Tree) insertID(id int) {
	p := t.Point(id)
	if t.root == nil {
		t.root = newNode(id, p, 0)
		return
	}
	cow := t.sharedNodes.Load()
	if cow {
		root := *t.root
		t.root = &root
	}
	s := descentPool.Get().(*descent)
	defer descentPool.Put(s)
	dCur := t.Dist(p, t.rowOf(t.root))
	if dCur > t.root.covdist() {
		// Lazy root raise: lift the root's level until its cover
		// radius reaches the new point. Children remain covered (the
		// radius only grew) and keep strictly smaller levels.
		t.root.level = levelFor(dCur)
	}
	t.descend(t.root, dCur, id, cow, s.level(0))
}

// descend is insertion's descent: it threads point id, which lies at dCur
// from cur and within cur's cover radius, into cur's subtree. cur is this
// tree's own node; under cow its children slice is still the shared one,
// and each node the descent changes below it is copied first. The distance
// to the child descended into is the next level's distance to its own
// point, measured once.
func (t *Tree) descend(cur *node, dCur float64, id int, cow bool, s *chunkScratch) {
	p := t.Point(id)
	for {
		if dCur > cur.maxDist {
			cur.maxDist = dCur
		}
		best, bestDist := t.nearestCovering(p, cur.children, s)
		if best < 0 {
			if cow { // a copy with room for exactly the leaf
				cur.children = append(make([]*node, 0, len(cur.children)+1), cur.children...)
			}
			cur.children = append(cur.children, newNode(id, p, cur.level-1))
			return
		}
		if cow {
			child := *cur.children[best]
			cur.children = slices.Clone(cur.children)
			cur.children[best] = &child
		}
		cur, dCur = cur.children[best], bestDist
	}
}

// nearestCovering is insertion's rule: it returns the index of the nearest
// of children whose cover radius reaches p, the first on a tie, and its
// distance, or −1 if none does. It measures the children a chunk at a time
// through the one-vs-many kernel.
func (t *Tree) nearestCovering(p []float64, children []*node, s *chunkScratch) (best int, bestDist float64) {
	best, bestDist = -1, math.Inf(1)
	for lo, rest := 0, children; len(rest) > 0; lo, rest = lo+expandChunk, nextChunk(rest) {
		for i, dc := range t.measure(p, rest, s) {
			if dc <= rest[i].covdist() && dc < bestDist {
				best, bestDist = lo+i, dc
			}
		}
	}
	return best, bestDist
}

// levelFor returns the smallest integer ℓ with 2^ℓ >= d.
func levelFor(d float64) int32 {
	if d <= 0 {
		return math.MinInt32 / 2 // duplicates: any level covers
	}
	return int32(math.Ceil(math.Log2(d)))
}

// expandChunk is how many children one kernel call measures.
const expandChunk = 16

// chunkScratch is the one-vs-many kernel's argument space for one chunk of
// children. It lives in pooled query state, never in a local: the kernel is
// called through a func value, so an array handed to it from the stack would
// be moved to the heap on every call.
type chunkScratch struct {
	rows  [expandChunk][]float64
	dists [expandChunk]float64
}

// measure is the one child-expansion step every query form shares: it
// computes the distances from q to the first expandChunk (or fewer) of
// children in one call of the tree's one-vs-many kernel. dists[i] belongs to
// children[i] and is valid until s is used again; a caller walks a node's
// children by measuring, then dropping, len(dists) of them at a time
// (nextChunk). Each row is read through its node's row address, so the
// children's own slab block is all it touches before the kernel; the row
// references are dropped before it returns, so no scratch ever pins a
// dataset row.
func (t *Tree) measure(q []float64, children []*node, s *chunkScratch) (dists []float64) {
	n := min(expandChunk, len(children))
	rows := s.rows[:n]
	for i, child := range children[:n] {
		rows[i] = t.rowOf(child)
	}
	dists = s.dists[:n]
	t.Batch(q, rows, dists)
	clear(rows)
	return dists
}

// nextChunk returns the children left once measure has taken its chunk.
func nextChunk(children []*node) []*node {
	return children[min(expandChunk, len(children)):]
}

// queueEntry is a tree node queued for expansion, with its exact distance to
// the query (used both to emit the node's own point and to bound children).
type queueEntry struct {
	n    *node
	dist float64 // d(q, n.point)
}

// lowerBound returns the least possible distance from the query to any point
// in the subtree of n, which lies at dist from the query.
func lowerBound(n *node, dist float64) float64 { return max(dist-n.maxDist, 0) }

// cursor implements index.Cursor by interleaving two heaps: pending subtrees
// keyed by their lower bound, and already-resolved points keyed by exact
// distance. A point is emitted only once no pending subtree could contain
// anything as close, which yields the stream in ascending (distance, ID)
// order — the order that lets streams over disjoint shards merge into exactly
// the stream over their union.
//
// The same object is the frontier of a KNN search. Either way it comes from
// cursorPool and goes back on Close with both heaps' grown backing arrays, so
// a query that closes its cursor leaves no garbage behind.
type cursor struct {
	t      *Tree // nil once closed
	q      []float64
	skipID int
	nodes  *pqueue.Min[queueEntry]
	ready  *pqueue.Min[int]
	chunk  chunkScratch
}

var cursorPool = sync.Pool{New: func() any {
	return &cursor{nodes: pqueue.NewMin[queueEntry](64), ready: pqueue.NewNearest(64)}
}}

// NewCursor implements index.Index: it takes a cursor from the pool and
// queues the root.
func (t *Tree) NewCursor(q []float64, skipID int) index.Cursor {
	c := cursorPool.Get().(*cursor)
	c.t, c.q, c.skipID = t, q, skipID
	if t.root != nil {
		d := t.Dist(q, t.rowOf(t.root))
		c.nodes.Push(lowerBound(t.root, d), queueEntry{n: t.root, dist: d})
	}
	return c
}

// Close implements index.Cursor: the cursor empties itself — the heaps keep
// their capacity and nothing else, the tree and the query are let go — and
// returns to the pool. Until it is reopened its Next reports exhausted; a
// second Close finds it closed.
func (c *cursor) Close() {
	if c.t == nil {
		return
	}
	c.t, c.q = nil, nil
	c.nodes.Reset()
	c.ready.Reset()
	cursorPool.Put(c)
}

func (c *cursor) Next() (index.Neighbor, bool) {
	for {
		readyTop, hasReady := c.ready.Peek()
		nodeTop, hasNode := c.nodes.Peek()
		// Strictly below every pending subtree's bound: a subtree that
		// could still hold a point at this very distance is opened first,
		// so ties leave the ready heap in ascending ID order.
		if hasReady && (!hasNode || readyTop.Priority < nodeTop.Priority) {
			it, _ := c.ready.Pop()
			return index.Neighbor{ID: it.Value, Dist: it.Priority}, true
		}
		if !hasNode {
			return index.Neighbor{}, false
		}
		it, _ := c.nodes.Pop()
		e := it.Value
		if !c.t.Skip(int(e.n.id), c.skipID) {
			c.ready.Push(e.dist, int(e.n.id))
		}
		for rest := e.n.children; len(rest) > 0; rest = nextChunk(rest) {
			for i, d := range c.t.measure(c.q, rest, &c.chunk) {
				switch child := rest[i]; {
				case len(child.children) > 0:
					c.nodes.Push(lowerBound(child, d), queueEntry{n: child, dist: d})
				case !c.t.Skip(int(child.id), c.skipID):
					// A childless node is its own subtree, and its bound is
					// its distance: it is resolved already, and waits on the
					// ready heap under the same strict test.
					c.ready.Push(d, int(child.id))
				}
			}
		}
	}
}

// KNN implements index.Index: the first k neighbors of the cursor, drained
// off the pooled frontier.
func (t *Tree) KNN(q []float64, k int, skipID int) []index.Neighbor {
	if k <= 0 || t.root == nil {
		return nil
	}
	return index.Collect(t.NewCursor(q, skipID), min(k, t.Len()))
}

// descent is the pooled scratch of one depth-first walk: a chunk of kernel
// argument space per level of the recursion, because a level's distances must
// outlive the descent into its children. It holds numbers only between
// kernel calls (measure), so the pool pins nothing.
type descent struct{ levels []*chunkScratch }

var descentPool = sync.Pool{New: func() any { return new(descent) }}

// level returns the scratch of the given recursion depth.
func (d *descent) level(depth int) *chunkScratch {
	if depth == len(d.levels) {
		d.levels = append(d.levels, new(chunkScratch))
	}
	return d.levels[depth]
}

// CountCloser implements index.Index with a depth-first walk over the same
// d − maxDist lower bounds KNN prunes by: a subtree is entered unless its
// bound exceeds r, and the walk returns the moment limit points are found. It keeps no frontier heap and allocates nothing.
func (t *Tree) CountCloser(q []float64, r float64, limit, skipID int, dead *index.Tombstones) int {
	if limit <= 0 || t.root == nil {
		return 0
	}
	c := closerCount{t: t, q: q, r: r, limit: limit, skipID: skipID, dead: dead, scratch: descentPool.Get().(*descent)}
	c.visit(t.root, t.Dist(q, t.rowOf(t.root)), 0)
	descentPool.Put(c.scratch)
	return c.n
}

// closerCount is the state of one CountCloser walk.
type closerCount struct {
	t       *Tree
	q       []float64
	r       float64
	limit   int
	skipID  int
	dead    *index.Tombstones
	n       int
	scratch *descent
}

// visit counts n's own point (d is its distance from q; depth its level in
// the walk) and descends into the children that can still hold a point
// closer than r, measuring them a chunk at a time.
func (c *closerCount) visit(n *node, d float64, depth int) {
	if d < c.r && !c.t.Skip(int(n.id), c.skipID) && !c.dead.Has(int(n.id)) {
		c.n++
	}
	for rest := n.children; len(rest) > 0 && c.n < c.limit; rest = nextChunk(rest) {
		for i, dc := range c.t.measure(c.q, rest, c.scratch.level(depth)) {
			if c.n >= c.limit {
				return
			}
			if dc-rest[i].maxDist > c.r {
				continue
			}
			c.visit(rest[i], dc, depth+1)
		}
	}
}

// TableBounds implements index.TableReverser: bound[id] is the largest kd
// over the subtree of node id, filled in one post-order pass. A table is a
// snapshot's, and the nodes are never written: the bounds live beside it.
func (t *Tree) TableBounds(kd []float64) ([]float64, bool) {
	bound := make([]float64, t.IDSpan())
	var up func(n *node) float64
	up = func(n *node) float64 {
		b := kd[n.id]
		for _, c := range n.children {
			b = max(b, up(c))
		}
		bound[n.id] = b
		return b
	}
	if t.root != nil {
		up(t.root)
	}
	return bound, true
}

// ReverseByTable implements index.TableReverser with a depth-first walk on
// the descent scratch CountCloser uses. Every point x below a node n lies at
// least d(q,n) − maxDist(n) from q and is accepted only if d(q,x) ≤ kd[x] ≤
// bound[n], so the walk enters a subtree only while that lower bound is
// within its bound.
func (t *Tree) ReverseByTable(q []float64, skipID int, kd, bound []float64, out []int) []int {
	if t.root == nil {
		return out
	}
	w := tableWalk{t: t, q: q, skipID: skipID, kd: kd, bound: bound, out: out, scratch: descentPool.Get().(*descent)}
	w.visit(t.root, t.Dist(q, t.rowOf(t.root)), 0)
	descentPool.Put(w.scratch)
	return w.out
}

// tableWalk is the state of one ReverseByTable walk.
type tableWalk struct {
	t         *Tree
	q         []float64
	skipID    int
	kd, bound []float64
	out       []int
	scratch   *descent
}

// visit takes n's own point, at d from q, if the table accepts it, and
// descends into the children whose subtree the bound cannot rule out.
func (w *tableWalk) visit(n *node, d float64, depth int) {
	if id := int(n.id); d <= w.kd[id] && id != w.skipID {
		w.out = append(w.out, id)
	}
	for rest := n.children; len(rest) > 0; rest = nextChunk(rest) {
		for i, dc := range w.t.measure(w.q, rest, w.scratch.level(depth)) {
			if c := rest[i]; dc-c.maxDist <= w.bound[c.id] {
				w.visit(c, dc, depth+1)
			}
		}
	}
}

// CheckInvariants walks the tree verifying the covering and bounding
// invariants; tests call it after builds and mutations. It returns nil on a
// healthy tree.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		if t.IDSpan() > 0 {
			return errors.New("covertree: non-empty tree with nil root")
		}
		return nil
	}
	rows, seen := t.Rows(), make([]bool, t.IDSpan())
	// check returns the IDs of all points in n's subtree, verifying the
	// covering and level invariants on the way down and the exact maxDist
	// bound against every descendant on the way up.
	var check func(n *node) ([]int, error)
	check = func(n *node) ([]int, error) {
		id := int(n.id)
		if seen[id] {
			return nil, errors.New("covertree: point appears twice")
		}
		if n.row != &rows[id][0] {
			return nil, errors.New("covertree: node's row is not its point's")
		}
		seen[id] = true
		ids := []int{id}
		for _, c := range n.children {
			if c.level >= n.level {
				return nil, errors.New("covertree: child level not below parent level")
			}
			d := t.Metric().Distance(rows[n.id], rows[c.id])
			if d > n.covdist()*(1+1e-9) {
				return nil, errors.New("covertree: covering invariant violated")
			}
			sub, err := check(c)
			if err != nil {
				return nil, err
			}
			ids = append(ids, sub...)
		}
		for _, id := range ids {
			if d := t.Metric().Distance(rows[n.id], rows[id]); d > n.maxDist+1e-9 {
				return nil, errors.New("covertree: maxDist bound violated")
			}
		}
		return ids, nil
	}
	ids, err := check(t.root)
	if err != nil {
		return err
	}
	if len(ids) != len(rows) {
		return errors.New("covertree: tree does not contain every point")
	}
	return nil
}
