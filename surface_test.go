package repro

import (
	"reflect"
	"strings"
	"testing"
)

// TestEngineSurfacesAgree pins that the three engine types answer through
// one surface: the same query and write methods, under the same names, with
// the same signatures — written once (surface.go), so they cannot drift —
// and the same telemetry and tracing binding, which a serving role attaches
// to whichever engine it serves without asking what kind it is.
func TestEngineSurfacesAgree(t *testing.T) {
	want := []string{
		"BatchReverseKNN", "BatchReverseKNNContext",
		"Delete", "DeleteContext",
		"Insert", "InsertBatch", "InsertBatchContext", "InsertContext",
		"KNN", "KNNContext",
		"ReverseKNN", "ReverseKNNContext",
		"ReverseKNNPoint", "ReverseKNNPointContext",
		"ReverseKNNPointStats", "ReverseKNNPointStatsContext",
		"ReverseKNNStats", "ReverseKNNStatsContext",
		"EnableTelemetry", "EnableTracing",
		"EngineWindowStats", "QueryWindowStats", "WorkloadTopK",
	}
	// A method's signature without its receiver: what a caller sees.
	sig := func(typ reflect.Type, name string) string {
		m, ok := typ.MethodByName(name)
		if !ok {
			return "missing"
		}
		return strings.Replace(m.Type.String(), typ.String(), "", 1)
	}
	for _, name := range want {
		ref := sig(reflect.TypeFor[*Searcher](), name)
		if ref == "missing" {
			t.Fatalf("Searcher has no %s", name)
		}
		for _, typ := range []reflect.Type{reflect.TypeFor[*ShardedSearcher](), reflect.TypeFor[*Coordinator]()} {
			if got := sig(typ, name); got != ref {
				t.Errorf("%v.%s is %s, Searcher's %s", typ, name, got, ref)
			}
		}
	}
}
