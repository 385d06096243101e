// Package persist is the durability layer of the engine: a versioned,
// CRC-checksummed binary snapshot format for index state, an append-only
// write-ahead log for online updates, and a generation-numbered on-disk
// store that combines the two with atomic snapshot cuts and crash recovery.
//
// The layer deliberately knows nothing about query algorithms. A Snapshot
// is pure data — metric identity, engine configuration, the point rows and
// tombstone set of an index.State, plus an optional backend-native blob —
// and the repro facade converts between Snapshot and a live Searcher (see
// DESIGN.md, "Durable persistence").
//
// Every decoder in this package must uphold two properties regardless of
// input bytes: never panic, and never allocate memory disproportionate to
// the input actually consumed (length prefixes are sanity-capped and large
// sections are read incrementally). The fuzz tests pin both.
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// formatVersion is the snapshot/WAL format version. Bump only with a
// migration path for existing files.
const formatVersion = 1

// snapVersionQuant is the snapshot format revision that appends a
// quantized-filter codebook section. Snapshots without a codebook are
// still written as formatVersion, so files produced by engines that never
// enable the filter are byte-identical to version-1 files; ReadSnapshot
// accepts both revisions.
const snapVersionQuant = 2

// Sanity caps on length prefixes: a decoder must reject anything beyond
// these before allocating, so malformed or adversarial inputs cannot
// request absurd allocations.
const (
	maxDim        = 1 << 20 // coordinates per point
	maxHeaderLen  = 1 << 12 // bytes in a snapshot or dataset header
	maxBackendLen = 64      // bytes in a backend name
	maxNameLen    = 1 << 10 // bytes in a dataset name
	maxWALPayload = 1 << 26 // bytes in one WAL record payload (one point)
	maxNativeLen  = 1 << 30 // bytes in a backend-native structure blob
	maxQuantLen   = 1 << 20 // bytes in a quantized-filter codebook blob
)

// trailerMagic terminates every snapshot and dataset file, distinguishing a
// complete file from one truncated after its last checksummed section.
const trailerMagic uint32 = 0x454E4B52 // "RKNE"

var (
	snapMagic = [8]byte{'R', 'K', 'N', 'N', 'S', 'N', 'A', 'P'}
	dataMagic = [8]byte{'R', 'K', 'N', 'N', 'D', 'A', 'T', 'A'}
)

// crcTable selects CRC-32C (Castagnoli), hardware-accelerated on amd64 and
// arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports that persisted bytes failed validation — bad magic,
// checksum mismatch, truncation, or an out-of-range length prefix. Match
// with errors.Is.
var ErrCorrupt = errors.New("persist: corrupt or truncated data")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// ---- little-endian append helpers (encode side) ----

func appendU8(b []byte, v uint8) []byte { return append(b, v) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

// ---- decode-side helpers ----

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

func getF64(b []byte) float64 { return math.Float64frombits(getU64(b)) }

// byteCursor walks a fully-read buffer (a checksummed header) with bounds
// checking instead of panics.
type byteCursor struct {
	b   []byte
	off int
}

func (c *byteCursor) take(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) {
		return nil, corruptf("header field overruns header (%d bytes at offset %d of %d)", n, c.off, len(c.b))
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out, nil
}

func (c *byteCursor) u8() (uint8, error) {
	b, err := c.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *byteCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return getU32(b), nil
}

func (c *byteCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return getU64(b), nil
}

func (c *byteCursor) f64() (float64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return getF64(b), nil
}

func (c *byteCursor) done() error {
	if c.off != len(c.b) {
		return corruptf("%d trailing bytes after header fields", len(c.b)-c.off)
	}
	return nil
}

// readFull reads exactly len(b) bytes, converting a clean EOF mid-field
// into ErrCorrupt (truncation).
func readFull(r io.Reader, b []byte) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return corruptf("unexpected end of data")
		}
		return err
	}
	return nil
}

func readU32(r io.Reader, scratch []byte) (uint32, error) {
	if err := readFull(r, scratch[:4]); err != nil {
		return 0, err
	}
	return getU32(scratch), nil
}

// writePointsSection streams count×dim float64 rows followed by a CRC-32C
// of the raw bytes.
func writePointsSection(w io.Writer, points [][]float64, dim int) error {
	crc := crc32.New(crcTable)
	out := io.MultiWriter(w, crc)
	row := make([]byte, 0, dim*8)
	for _, p := range points {
		if len(p) != dim {
			return fmt.Errorf("persist: point dimension %d, expected %d", len(p), dim)
		}
		row = row[:0]
		for _, x := range p {
			row = appendF64(row, x)
		}
		if _, err := out.Write(row); err != nil {
			return err
		}
	}
	var tail []byte
	tail = appendU32(tail, crc.Sum32())
	_, err := w.Write(tail)
	return err
}

// pointBlockFloats is how many coordinates readPointsSection decodes into
// one contiguous block (512 KB): rows are laid out back to back in blocks of
// this size, at least one row a block.
const pointBlockFloats = 1 << 16

// readPointsSection reads count rows of dim float64s and verifies the
// trailing CRC. Rows are decoded into contiguous blocks, each clipped to
// dim so no row's capacity reaches into the next, and each block is
// allocated only when the stream reaches it: a bogus count on a short
// stream fails having allocated one block, and the bytes to decode it
// from, past what the stream delivered.
func readPointsSection(r io.Reader, count uint64, dim int) ([][]float64, error) {
	crc := crc32.New(crcTable)
	blockRows := uint64(max(1, pointBlockFloats/dim))
	raw := make([]byte, min(count, blockRows)*uint64(dim)*8)
	points := make([][]float64, 0, min(count, 1<<16))
	for read := uint64(0); read < count; {
		rows := int(min(count-read, blockRows))
		block := make([]float64, rows*dim)
		b := raw[:len(block)*8]
		if err := readFull(r, b); err != nil {
			return nil, err
		}
		crc.Write(b)
		for j := range block {
			block[j] = getF64(b[j*8:])
		}
		for i := range rows {
			points = append(points, block[i*dim:(i+1)*dim:(i+1)*dim])
		}
		read += uint64(rows)
	}
	var scratch [4]byte
	sum, err := readU32(r, scratch[:])
	if err != nil {
		return nil, err
	}
	if sum != crc.Sum32() {
		return nil, corruptf("point data checksum mismatch")
	}
	return points, nil
}

// readChecksummedBlob reads a length-known byte section followed by its
// CRC, in bounded chunks so a large claimed length on a short stream fails
// early.
func readChecksummedBlob(r io.Reader, length uint64) ([]byte, error) {
	crc := crc32.New(crcTable)
	blob := make([]byte, 0, min(length, 1<<16))
	chunk := make([]byte, 1<<16)
	for remaining := length; remaining > 0; {
		n := min(remaining, uint64(len(chunk)))
		if err := readFull(r, chunk[:n]); err != nil {
			return nil, err
		}
		crc.Write(chunk[:n])
		blob = append(blob, chunk[:n]...)
		remaining -= n
	}
	var scratch [4]byte
	sum, err := readU32(r, scratch[:])
	if err != nil {
		return nil, err
	}
	if sum != crc.Sum32() {
		return nil, corruptf("blob checksum mismatch")
	}
	return blob, nil
}

// writeChecksummedBlob is the encode counterpart of readChecksummedBlob.
func writeChecksummedBlob(w io.Writer, blob []byte) error {
	if _, err := w.Write(blob); err != nil {
		return err
	}
	var tail []byte
	tail = appendU32(tail, crc32.Checksum(blob, crcTable))
	_, err := w.Write(tail)
	return err
}
