package persist

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/vecmath"
)

// Snapshot is the complete serializable state of a Searcher: metric
// identity, engine configuration (so a restore never re-estimates the scale
// parameter), the index content of an index.State, and an optional
// backend-native structure blob (the cover tree serializes its node
// topology so a restore skips the O(n log n) re-insertion build).
type Snapshot struct {
	MetricID    vecmath.MetricID
	MetricParam float64
	Backend     string

	Plus     bool    // RDT+ candidate reduction enabled
	Adaptive bool    // online per-query scale estimation
	Scale    float64 // pinned/estimated scale t (0 when Adaptive)
	Margin   float64 // scale margin / adaptive multiplier minus one

	Dim     int
	Points  [][]float64 // all IDs ever assigned, in ID order
	Deleted []int       // tombstoned IDs, ascending
	Native  []byte      // optional backend-native structure (may be nil)
}

// flag bits in the header.
const (
	flagPlus     = 1 << 0
	flagAdaptive = 1 << 1
)

// File layout (all integers little-endian):
//
//	magic   [8]byte  "RKNNSNAP"
//	version u32      = 1 (2 is read, never written)
//	header  u32 len | fields | u32 CRC-32C(fields)
//	points  len(Points)×Dim f64 rows | u32 CRC-32C(raw row bytes)
//	deleted len(Deleted)×u64 | u32 CRC-32C
//	native  len(Native) bytes | u32 CRC-32C
//	quant   quant length bytes | u32 CRC-32C   (version 2 only)
//	trailer u32      "RKNE"
//
// Header fields, in order: u8 metric ID, f64 metric param, u8 backend name
// length + bytes, u8 flags, f64 scale, f64 margin, u32 dim, u64 point
// count, u64 deleted count, u64 native length, u64 quant length (version 2
// only). Version 2 is version 1 plus the codebook of the since-removed
// quantized pre-filter (snapVersionQuant); a reader checks that section and
// drops it, so a version-2 file re-saves as version 1.

// WriteSnapshot encodes s. The writer is buffered internally; callers that
// need durability must sync the underlying file themselves (the Store
// does).
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if err := validateSnapshot(s); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)

	var head []byte
	head = append(head, snapMagic[:]...)
	head = appendU32(head, formatVersion)

	var h []byte
	h = appendU8(h, uint8(s.MetricID))
	h = appendF64(h, s.MetricParam)
	h = appendU8(h, uint8(len(s.Backend)))
	h = append(h, s.Backend...)
	var flags uint8
	if s.Plus {
		flags |= flagPlus
	}
	if s.Adaptive {
		flags |= flagAdaptive
	}
	h = appendU8(h, flags)
	h = appendF64(h, s.Scale)
	h = appendF64(h, s.Margin)
	h = appendU32(h, uint32(s.Dim))
	h = appendU64(h, uint64(len(s.Points)))
	h = appendU64(h, uint64(len(s.Deleted)))
	h = appendU64(h, uint64(len(s.Native)))

	head = appendU32(head, uint32(len(h)))
	head = append(head, h...)
	head = appendU32(head, crc32.Checksum(h, crcTable))
	if _, err := bw.Write(head); err != nil {
		return err
	}

	if err := writePointsSection(bw, s.Points, s.Dim); err != nil {
		return err
	}

	var del []byte
	for _, id := range s.Deleted {
		del = appendU64(del, uint64(id))
	}
	if err := writeChecksummedBlob(bw, del); err != nil {
		return err
	}

	if err := writeChecksummedBlob(bw, s.Native); err != nil {
		return err
	}

	var tail []byte
	tail = appendU32(tail, trailerMagic)
	if _, err := bw.Write(tail); err != nil {
		return err
	}
	return bw.Flush()
}

// validateSnapshot rejects states the format cannot represent before any
// bytes are written.
func validateSnapshot(s *Snapshot) error {
	if s.MetricID == vecmath.MetricIDInvalid {
		return fmt.Errorf("persist: snapshot has no metric ID")
	}
	if len(s.Backend) == 0 || len(s.Backend) > maxBackendLen {
		return fmt.Errorf("persist: backend name length %d out of range [1, %d]", len(s.Backend), maxBackendLen)
	}
	if s.Dim < 1 || s.Dim > maxDim {
		return fmt.Errorf("persist: dimension %d out of range [1, %d]", s.Dim, maxDim)
	}
	if len(s.Points) == 0 {
		return fmt.Errorf("persist: snapshot has no points")
	}
	if len(s.Deleted) > len(s.Points) {
		return fmt.Errorf("persist: %d tombstones exceed %d points", len(s.Deleted), len(s.Points))
	}
	if uint64(len(s.Native)) > maxNativeLen {
		return fmt.Errorf("persist: native blob of %d bytes exceeds cap", len(s.Native))
	}
	return nil
}

// ReadSnapshot decodes a snapshot written by WriteSnapshot, verifying magic,
// version, every section checksum, and all structural invariants (sorted
// in-range tombstones, capped lengths). Any malformed input yields an error
// wrapping ErrCorrupt; decoding never panics and never allocates memory
// disproportionate to the bytes actually present.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var scratch [8]byte

	if err := readFull(br, scratch[:8]); err != nil {
		return nil, err
	}
	if [8]byte(scratch[:8]) != snapMagic {
		return nil, corruptf("bad snapshot magic")
	}
	version, err := readU32(br, scratch[:])
	if err != nil {
		return nil, err
	}
	if version != formatVersion && version != snapVersionQuant {
		return nil, corruptf("unsupported snapshot format version %d", version)
	}

	headerLen, err := readU32(br, scratch[:])
	if err != nil {
		return nil, err
	}
	if headerLen > maxHeaderLen {
		return nil, corruptf("header length %d exceeds cap", headerLen)
	}
	h := make([]byte, headerLen)
	if err := readFull(br, h); err != nil {
		return nil, err
	}
	sum, err := readU32(br, scratch[:])
	if err != nil {
		return nil, err
	}
	if sum != crc32.Checksum(h, crcTable) {
		return nil, corruptf("header checksum mismatch")
	}

	s := &Snapshot{}
	cur := &byteCursor{b: h}
	mid, err := cur.u8()
	if err != nil {
		return nil, err
	}
	s.MetricID = vecmath.MetricID(mid)
	if s.MetricParam, err = cur.f64(); err != nil {
		return nil, err
	}
	blen, err := cur.u8()
	if err != nil {
		return nil, err
	}
	if blen == 0 || int(blen) > maxBackendLen {
		return nil, corruptf("backend name length %d out of range", blen)
	}
	bname, err := cur.take(int(blen))
	if err != nil {
		return nil, err
	}
	s.Backend = string(bname)
	flags, err := cur.u8()
	if err != nil {
		return nil, err
	}
	s.Plus = flags&flagPlus != 0
	s.Adaptive = flags&flagAdaptive != 0
	if s.Scale, err = cur.f64(); err != nil {
		return nil, err
	}
	if s.Margin, err = cur.f64(); err != nil {
		return nil, err
	}
	dim, err := cur.u32()
	if err != nil {
		return nil, err
	}
	if dim < 1 || dim > maxDim {
		return nil, corruptf("dimension %d out of range", dim)
	}
	s.Dim = int(dim)
	count, err := cur.u64()
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, corruptf("snapshot with zero points")
	}
	deletedCount, err := cur.u64()
	if err != nil {
		return nil, err
	}
	if deletedCount > count {
		return nil, corruptf("%d tombstones exceed %d points", deletedCount, count)
	}
	nativeLen, err := cur.u64()
	if err != nil {
		return nil, err
	}
	if nativeLen > maxNativeLen {
		return nil, corruptf("native blob length %d exceeds cap", nativeLen)
	}
	var quantLen uint64
	if version == snapVersionQuant {
		if quantLen, err = cur.u64(); err != nil {
			return nil, err
		}
		if quantLen > maxQuantLen {
			return nil, corruptf("quant codebook length %d exceeds cap", quantLen)
		}
	}
	if err := cur.done(); err != nil {
		return nil, err
	}
	if math.IsNaN(s.MetricParam) || math.IsNaN(s.Margin) {
		return nil, corruptf("NaN in header parameters")
	}

	if s.Points, err = readPointsSection(br, count, s.Dim); err != nil {
		return nil, err
	}

	delBlob, err := readChecksummedBlob(br, deletedCount*8)
	if err != nil {
		return nil, err
	}
	if deletedCount > 0 {
		s.Deleted = make([]int, deletedCount)
		for i := range s.Deleted {
			id := getU64(delBlob[i*8:])
			if id >= count {
				return nil, corruptf("tombstoned id %d out of range [0, %d)", id, count)
			}
			if i > 0 && int(id) <= s.Deleted[i-1] {
				return nil, corruptf("tombstone ids not strictly ascending")
			}
			s.Deleted[i] = int(id)
		}
	}

	if s.Native, err = readChecksummedBlob(br, nativeLen); err != nil {
		return nil, err
	}
	if nativeLen == 0 {
		s.Native = nil
	}

	if version == snapVersionQuant {
		if _, err := readChecksummedBlob(br, quantLen); err != nil {
			return nil, err
		}
	}

	tm, err := readU32(br, scratch[:])
	if err != nil {
		return nil, err
	}
	if tm != trailerMagic {
		return nil, corruptf("bad trailer magic")
	}
	return s, nil
}
