package repro

import "repro/internal/trace"

// EnableTracing points the engine at a trace ring: background work that has
// no request context (snapshot compaction) records its own root traces
// there. Request traces are created and retained by the caller (the HTTP
// server); the engine only adds spans to whatever trace the context
// carries, ring or no ring. Safe to call at most once, before serving.
func (s *Searcher) EnableTracing(ring *trace.Ring) {
	s.traceRing.Store(ring)
}

// EnableTracing points the sharded engine and every current shard engine at
// a trace ring (see Searcher.EnableTracing); shards populated later inherit
// it. Safe to call at most once, before serving.
func (ss *ShardedSearcher) EnableTracing(ring *trace.Ring) {
	ss.traceRing.Store(ring)
	for _, eng := range ss.engines() {
		eng.traceRing.Store(ring)
	}
}
