package main

import (
	"math/rand"

	repro "repro"
	"repro/internal/dataset"
)

// maxClients caps the closed-loop client count and fixes how the write
// pools are partitioned, so the generated inputs do not depend on the
// core count of the box that runs them.
const maxClients = 4

// shards is the shard count of the sharded and networked workloads.
const shards = 3

// kind selects the outermost layer a workload's clients talk to.
type kind int

const (
	kindSearcher kind = iota // repro.Searcher, called in process
	kindSharded              // repro.ShardedSearcher, called in process
	kindCluster              // HTTP front door -> Coordinator -> shard daemons
	kindDurable              // HTTP server over a DurableSearcher, reads and writes
)

// sizing holds every size the benchmark uses, so the smoke test can run
// the same code at toy scale.
type sizing struct {
	fctN, mnistN           int // indexed points per dataset family
	sample, check          int // query sample and its oracle-checked prefix
	external               int // held-out tail rows used as external query points
	insertsPerClient       int // held-out tail rows each writer of a mixed workload may insert
	ladderInserts          int // same, for read-only workloads: only the traced pass writes
	traceFCT, traceMNIST   int // traced queries per ladder boundary
	writeBurst, exhaustive int // ladder: timed writes per kind, exhaustive-kNN queries
}

// fullSizing is what BENCHMARK.json measures. The FCT family is n = 50 000
// and the MNIST surrogate n = 3 000 so that one run — set-up three times,
// exact oracle table, warm-up, window, checks — stays near 20 s on two
// cores; README.md gives the arithmetic.
var fullSizing = sizing{
	fctN: 50000, mnistN: 3000,
	sample: 4096, check: 200, external: 1024, insertsPerClient: 4096, ladderInserts: 128,
	traceFCT: 256, traceMNIST: 64,
	writeBurst: 100, exhaustive: 32,
}

// workload is one named set of inputs plus the system it is driven through.
type workload struct {
	name, why string
	kind      kind
	gen       func(n int, seed int64) *dataset.Dataset
	n         int
	backend   repro.Backend
	k         int
	t         float64 // pinned scale parameter: an estimator change cannot pass as a speed-up
	traceN    int
	mixed     bool // 80/10/10 read/insert/delete instead of read-only
}

// engineOptions are the facade options every engine of the workload is
// built with.
func (w workload) engineOptions() []repro.Option {
	return []repro.Option{repro.WithBackend(w.backend), repro.WithScale(w.t)}
}

func workloads(sz sizing) []workload {
	fct := func(name, why string, kd kind, mixed bool) workload {
		return workload{name: name, why: why, kind: kd, gen: dataset.FCT, n: sz.fctN,
			backend: repro.BackendCoverTree, k: 10, t: 4, traceN: sz.traceFCT, mixed: mixed}
	}
	return []workload{
		fct("lib-lowdim", "one Searcher on a cover tree at d=53: core scan/filter/verify and tree kNN do the work, kernel little, scatter and wire none", kindSearcher, false),
		{name: "lib-highdim", why: "one Searcher on the scan back-end at d=784: every stage is a run of long distances, so vecmath and scan dominate",
			kind: kindSearcher, gen: dataset.MNIST, n: sz.mnistN, backend: repro.BackendScan, k: 10, t: 6, traceN: sz.traceMNIST},
		fct("lib-sharded", "ShardedSearcher S=3 on the lib-lowdim data: scatter, merge and cross-shard verification with no network under them", kindSharded, false),
		fct("cluster", "three shard daemons, binary-framed Coordinator and HTTP front door on loopback: wire, server and coordinator on top of lib-sharded", kindCluster, false),
		fct("serve-mixed", "HTTP server over a DurableSearcher with 80/10/10 read/insert/delete: overlay merge, background fold and WAL fsync beside reads", kindDurable, true),
	}
}

// query is one RkNN request: a member (id >= 0) or an external point.
type query struct {
	id    int
	point []float64
}

// inputs is everything generated from the seed. The system under test
// receives only these values, never the seed.
type inputs struct {
	points   [][]float64 // indexed at set-up
	queries  []query     // 75 % members, 25 % external points never indexed at set-up
	check    []query     // prefix of queries answered against the oracle
	inserts  [][]float64 // held-out tail, partitioned by client
	deletes  []int       // member IDs no query uses, partitioned by client
	perWrite int         // inserts per client
}

// populationSeed fixes the surrogate's shape. The paper's datasets are fixed
// populations (Forest Cover Type is one table, MNIST one set of images);
// the surrogates stand in for them, so the random manifold behind a
// surrogate is drawn once, and the run's seed draws the rows that are
// indexed, the held-out tail, the queries and the write streams from it.
// Seeding the generator itself would compare differently shaped datasets,
// whose candidate counts differ by more than any change worth measuring.
const populationSeed = 1

func generate(w workload, sz sizing, seed int64) *inputs {
	perWrite := sz.ladderInserts
	if w.mixed {
		perWrite = sz.insertsPerClient
	}
	need := w.n + sz.external + maxClients*perWrite
	population := w.gen(2*need, populationSeed).Points
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	// The drawn rows are copied out so that the other half of the
	// population is not kept alive under the measured heap.
	dim := len(population[0])
	flat := make([]float64, need*dim)
	all := make([][]float64, need)
	for i, row := range rng.Perm(len(population))[:need] {
		all[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		copy(all[i], population[row])
	}
	in := &inputs{points: all[:w.n], perWrite: perWrite}
	external := all[w.n : w.n+sz.external]
	in.inserts = all[w.n+sz.external:]

	queried := make(map[int]bool)
	in.queries = make([]query, sz.sample)
	for i := range in.queries {
		if rng.Float64() < 0.75 {
			id := rng.Intn(w.n)
			queried[id] = true
			in.queries[i] = query{id: id, point: in.points[id]}
		} else {
			in.queries[i] = query{id: -1, point: external[rng.Intn(len(external))]}
		}
	}
	in.check = in.queries[:min(sz.check, len(in.queries))]
	// A member query at a deleted ID is an error, and the workloads are
	// chosen so that no operation fails: delete targets avoid every
	// queried member.
	for _, id := range rng.Perm(w.n) {
		if !queried[id] {
			in.deletes = append(in.deletes, id)
		}
	}
	return in
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one step of a client's stream.
type op struct {
	kind  opKind
	query int       // opRead: index into inputs.queries
	point []float64 // opInsert
	id    int       // opDelete
}

// stream is one client's operation sequence, a pure function of the seed
// and the client number. Insert points and delete targets come from the
// client's own slice of the pools, so concurrent clients never race for a
// target and every delete hits a live ID.
type stream struct {
	in      *inputs
	rng     *rand.Rand
	mixed   bool
	client  int
	reads   int
	inserts int
	deletes int
}

func newStream(in *inputs, seed int64, client int, mixed bool) *stream {
	return &stream{
		in: in, mixed: mixed, client: client,
		rng:   rand.New(rand.NewSource(seed*104729 + int64(client) + 1)),
		reads: client * len(in.queries) / maxClients,
	}
}

func (s *stream) next() op {
	if s.mixed {
		switch r := s.rng.Float64(); {
		case r >= 0.9:
			if at := s.deletes*maxClients + s.client; at < len(s.in.deletes) {
				s.deletes++
				return op{kind: opDelete, id: s.in.deletes[at]}
			}
		case r >= 0.8:
			if s.inserts < s.in.perWrite {
				p := s.in.inserts[s.client*s.in.perWrite+s.inserts]
				s.inserts++
				return op{kind: opInsert, point: p}
			}
		}
		// An exhausted pool (hours of writes at the measured rates)
		// degrades to reads rather than repeating a target.
	}
	q := s.reads % len(s.in.queries)
	s.reads++
	return op{kind: opRead, query: q}
}
