package lsh

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/vecmath"
)

// Structure codec: the LSH index's native state — quantization width,
// projection vectors, offsets, and the fully materialized bucket maps —
// serialized so a persisted index restores by reattaching buckets to the
// stored point rows with zero hash computations (pinned by the HashCalls
// counter tests) instead of re-projecting every point. The blob is embedded
// as the backend-native section of a snapshot (internal/persist); the
// decoder validates every structural invariant it can check without
// hashing, and malformed blobs yield an error (never a panic) so callers
// can fall back to a re-hashing rebuild.
//
// Layout, little-endian:
//
//	u8  version = 1
//	f64 width
//	u32 tables (L) | u32 hashes (M) | u32 dim | u64 point count
//	per table:
//	  M × dim f64 projection coordinates
//	  M × f64 offsets
//	  u32 bucket count
//	  per bucket: M*8 key bytes | u32 id count | ids as u32
//
// Bucket keys are fixed-width (M quantized projections, 8 bytes each, the
// same encoding appendKey produces), and buckets are written in sorted key
// order so identical indexes encode identically.

const codecVersion = 1

// Caps on decoded shape, far above any real configuration, so a corrupt
// count fails validation instead of requesting an absurd allocation.
const (
	maxTables = 1 << 10
	maxHashes = 1 << 10
)

// EncodeStructure serializes the index's native structure. The tombstone
// set is deliberately not included — persist stores it backend-independently
// — so the blob is a pure function of the hash tables.
func (ix *Index) EncodeStructure() []byte {
	keyLen := ix.hashes * 8
	size := 1 + 8 + 4 + 4 + 4 + 8
	for ti := range ix.tables {
		size += ix.hashes*ix.Dim()*8 + ix.hashes*8 + 4
		size += len(ix.tables[ti].buckets) * (keyLen + 4)
		size += ix.IDSpan() * 4
	}
	buf := make([]byte, 0, size)
	buf = append(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ix.width))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ix.tables)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.hashes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.Dim()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ix.IDSpan()))
	for ti := range ix.tables {
		t := &ix.tables[ti]
		for _, a := range t.projs {
			for _, x := range a {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		}
		for _, b := range t.offsets {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b))
		}
		keys := make([]string, 0, len(t.buckets))
		for key := range t.buckets {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
		for _, key := range keys {
			buf = append(buf, key...)
			ids := t.buckets[key]
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
			for _, id := range ids {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			}
		}
	}
	return buf
}

// Restore rebuilds an index from its point rows and an encoded structure,
// without a single hash computation — the buckets come straight from the
// blob, so the restored index produces byte-identical candidate sets to the
// one that was saved; the caller re-applies the tombstones, as after a
// build. It validates that the structure is well-formed (every point
// bucketed exactly once per table, IDs in range, finite parameters) and
// returns an error (never panics) on malformed input, so callers can fall
// back to a re-hashing rebuild.
func Restore(points [][]float64, metric vecmath.Metric, structure []byte) (*Index, error) {
	ix, err := newIndex(points, metric)
	if err == nil {
		err = ix.decodeStructure(structure)
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// decoder walks the blob with bounds checks instead of panics.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.b) {
		return nil, fmt.Errorf("lsh: structure field overruns blob (%d bytes at offset %d of %d)", n, d.off, len(d.b))
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out, nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) f64() (float64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// decodeStructure parses the blob into ix's tables, validating it against
// the rows ix holds.
func (ix *Index) decodeStructure(blob []byte) error {
	d, n := &decoder{b: blob}, ix.IDSpan()
	ver, err := d.take(1)
	if err != nil {
		return err
	}
	if ver[0] != codecVersion {
		return fmt.Errorf("lsh: unsupported structure version %d", ver[0])
	}
	width, err := d.f64()
	if err != nil {
		return err
	}
	if !(width > 0) || math.IsInf(width, 1) {
		return fmt.Errorf("lsh: structure width %v not positive and finite", width)
	}
	tables, err := d.u32()
	if err != nil {
		return err
	}
	hashes, err := d.u32()
	if err != nil {
		return err
	}
	dim, err := d.u32()
	if err != nil {
		return err
	}
	count, err := d.u32x2()
	if err != nil {
		return err
	}
	if tables == 0 || tables > maxTables {
		return fmt.Errorf("lsh: structure table count %d out of range", tables)
	}
	if hashes == 0 || hashes > maxHashes {
		return fmt.Errorf("lsh: structure hash count %d out of range", hashes)
	}
	if int(dim) != ix.Dim() {
		return fmt.Errorf("lsh: structure dimension %d does not match points dimension %d", dim, ix.Dim())
	}
	if count != uint64(n) {
		return fmt.Errorf("lsh: structure of %d points does not match %d point rows", count, n)
	}

	ix.width, ix.hashes, ix.tables = width, int(hashes), make([]table, tables)
	keyLen := int(hashes) * 8
	// seen[id] == table index + 1 marks id as bucketed in that table; one
	// allocation serves every table.
	seen := make([]uint32, n)
	for ti := range ix.tables {
		t := table{
			projs:   make([][]float64, hashes),
			offsets: make([]float64, hashes),
		}
		for h := range t.projs {
			a := make([]float64, dim)
			for j := range a {
				if a[j], err = d.f64(); err != nil {
					return err
				}
				if math.IsNaN(a[j]) || math.IsInf(a[j], 0) {
					return fmt.Errorf("lsh: structure table %d projection %d not finite", ti, h)
				}
			}
			t.projs[h] = a
		}
		for h := range t.offsets {
			if t.offsets[h], err = d.f64(); err != nil {
				return err
			}
			if math.IsNaN(t.offsets[h]) || math.IsInf(t.offsets[h], 0) {
				return fmt.Errorf("lsh: structure table %d offset %d not finite", ti, h)
			}
		}
		bucketCount, err := d.u32()
		if err != nil {
			return err
		}
		// Each bucket needs at least its key, a count, and one ID.
		if remaining := len(d.b) - d.off; int64(bucketCount)*(int64(keyLen)+8) > int64(remaining) {
			return fmt.Errorf("lsh: structure table %d claims %d buckets beyond blob size", ti, bucketCount)
		}
		t.buckets = make(map[string][]int, bucketCount)
		total := 0
		for bi := uint32(0); bi < bucketCount; bi++ {
			key, err := d.take(keyLen)
			if err != nil {
				return err
			}
			idCount, err := d.u32()
			if err != nil {
				return err
			}
			if idCount == 0 {
				return fmt.Errorf("lsh: structure table %d has an empty bucket", ti)
			}
			if remaining := len(d.b) - d.off; int64(idCount)*4 > int64(remaining) {
				return fmt.Errorf("lsh: structure table %d bucket claims %d ids beyond blob size", ti, idCount)
			}
			ids := make([]int, idCount)
			for i := range ids {
				id, err := d.u32()
				if err != nil {
					return err
				}
				if uint64(id) >= count {
					return fmt.Errorf("lsh: structure id %d out of range [0,%d)", id, count)
				}
				if seen[id] == uint32(ti)+1 {
					return fmt.Errorf("lsh: structure table %d repeats id %d", ti, id)
				}
				seen[id] = uint32(ti) + 1
				ids[i] = int(id)
			}
			if _, dup := t.buckets[string(key)]; dup {
				return fmt.Errorf("lsh: structure table %d repeats a bucket key", ti)
			}
			t.buckets[string(key)] = ids
			total += int(idCount)
		}
		if total != n {
			return fmt.Errorf("lsh: structure table %d buckets %d points, want %d", ti, total, n)
		}
		ix.tables[ti] = t
	}
	if d.off != len(blob) {
		return fmt.Errorf("lsh: %d trailing bytes after structure", len(blob)-d.off)
	}
	return nil
}

// u32x2 reads a u64 (two u32 halves, little-endian).
func (d *decoder) u32x2() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}
