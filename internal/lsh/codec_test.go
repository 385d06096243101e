package lsh

import (
	"bytes"
	"testing"

	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// buildForCodec builds an index with a non-default shape so the codec
// cannot pass by accident with DefaultOptions.
func buildForCodec(t *testing.T) (*Index, [][]float64) {
	t.Helper()
	pts := indextest.ClusteredPoints(250, 5, 4, 41)
	ix, err := New(pts, vecmath.Euclidean{}, Options{Tables: 7, Hashes: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return ix, pts
}

// sameCandidates compares full cursor streams (IDs in distance order),
// the strongest equality the index can exhibit: identical buckets produce
// identical candidate sets and therefore identical streams.
func sameCandidates(t *testing.T, a, b *Index, q []float64, skipID int) {
	t.Helper()
	ca, cb := a.NewCursor(q, skipID), b.NewCursor(q, skipID)
	for {
		na, oka := ca.Next()
		nb, okb := cb.Next()
		if oka != okb {
			t.Fatal("candidate streams end at different lengths")
		}
		if !oka {
			return
		}
		if na != nb {
			t.Fatalf("candidate streams diverge: %+v vs %+v", na, nb)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ix, pts := buildForCodec(t)
	blob := ix.EncodeStructure()
	if len(blob) == 0 {
		t.Fatal("empty structure blob")
	}
	if again := ix.EncodeStructure(); !bytes.Equal(blob, again) {
		t.Error("EncodeStructure is not deterministic")
	}

	before := HashCalls()
	re, err := Restore(pts, vecmath.Euclidean{}, blob)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if calls := HashCalls() - before; calls != 0 {
		t.Errorf("Restore performed %d hash computations, want 0", calls)
	}
	if re.Width() != ix.Width() || re.Tables() != ix.Tables() || re.Len() != ix.Len() || re.Dim() != ix.Dim() {
		t.Errorf("restored shape (w=%g, L=%d, n=%d, d=%d) differs from original (w=%g, L=%d, n=%d, d=%d)",
			re.Width(), re.Tables(), re.Len(), re.Dim(), ix.Width(), ix.Tables(), ix.Len(), ix.Dim())
	}
	if reBlob := re.EncodeStructure(); !bytes.Equal(blob, reBlob) {
		t.Error("re-encoded structure differs from the original blob")
	}
	for qid := 0; qid < len(pts); qid += 31 {
		sameCandidates(t, ix, re, pts[qid], qid)
	}
	// Off-member query point too.
	q := indextest.RandPoints(1, 5, 77)[0]
	sameCandidates(t, ix, re, q, -1)
}

func TestCodecRoundTripWithTombstones(t *testing.T) {
	ix, pts := buildForCodec(t)
	deleted := []int{3, 77, 249}
	for _, id := range deleted {
		if !ix.Delete(id) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	re, err := Restore(pts, vecmath.Euclidean{}, ix.EncodeStructure())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, id := range deleted {
		if !re.Delete(id) {
			t.Fatalf("restored index: Delete(%d) failed", id)
		}
	}
	if re.Len() != ix.Len() || re.IDSpan() != ix.IDSpan() {
		t.Errorf("restored Len=%d IDSpan=%d, want %d/%d", re.Len(), re.IDSpan(), ix.Len(), ix.IDSpan())
	}
	for _, id := range deleted {
		if re.Live(id) {
			t.Errorf("tombstoned id %d live after restore", id)
		}
	}
	for qid := 0; qid < len(pts); qid += 43 {
		if ix.Live(qid) {
			sameCandidates(t, ix, re, pts[qid], qid)
		}
	}

	if re.Delete(-1) {
		t.Error("the restored index deleted a negative ID")
	}
	if re.Delete(3) {
		t.Error("the restored index deleted an ID twice")
	}
}

// TestCodecRejectsMalformed walks truncations at every offset and single
// byte flips through the decoder: it must error or succeed, never panic,
// and truncations must always error.
func TestCodecRejectsMalformed(t *testing.T) {
	ix, pts := buildForCodec(t)
	blob := ix.EncodeStructure()

	for cut := 0; cut < len(blob); cut++ {
		if _, err := Restore(pts, vecmath.Euclidean{}, blob[:cut]); err == nil {
			t.Fatalf("Restore accepted a truncation at %d of %d bytes", cut, len(blob))
		}
	}
	for off := 0; off < len(blob); off += 7 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x41
		// Any outcome but a panic is acceptable: some flips only perturb a
		// projection coordinate, which remains a valid structure.
		_, _ = Restore(pts, vecmath.Euclidean{}, mut)
	}

	if _, err := Restore(pts[:100], vecmath.Euclidean{}, blob); err == nil {
		t.Error("Restore accepted a structure for a different point count")
	}
	if _, err := Restore(indextest.RandPoints(250, 3, 1), vecmath.Euclidean{}, blob); err == nil {
		t.Error("Restore accepted a structure for a different dimension")
	}
	if _, err := Restore(pts, vecmath.Manhattan{}, blob); err == nil {
		t.Error("Restore accepted a non-Euclidean metric")
	}
	// The never-panic contract extends to degenerate point slices: the row
	// validation rejects them before the decoder can touch points[0].
	if _, err := Restore([][]float64{}, vecmath.Euclidean{}, blob); err == nil {
		t.Error("Restore accepted an empty point slice")
	}
	if _, err := Restore(nil, vecmath.Euclidean{}, blob); err == nil {
		t.Error("Restore accepted a nil point slice")
	}
}

// TestRestoredIndexStaysDynamic pins that a restored index keeps the full
// dynamic contract: inserts hash into the restored tables and clones stay
// isolated.
func TestRestoredIndexStaysDynamic(t *testing.T) {
	ix, pts := buildForCodec(t)
	re, err := Restore(pts, vecmath.Euclidean{}, ix.EncodeStructure())
	if err != nil {
		t.Fatal(err)
	}
	dup := append([]float64(nil), pts[7]...)
	id, err := re.Insert(dup)
	if err != nil {
		t.Fatalf("Insert on restored index: %v", err)
	}
	if got := duplicates(re, pts[7], 7); got != 1 {
		t.Errorf("restored index sees %d duplicates after insert, want 1", got)
	}
	if !re.Delete(id) {
		t.Error("Delete on restored index failed")
	}
	cl := re.Clone().(*Index)
	if _, err := cl.Insert(dup); err != nil {
		t.Fatalf("Insert on clone of restored index: %v", err)
	}
	if re.IDSpan() == cl.IDSpan() {
		t.Error("clone insert leaked into the restored original")
	}
}
