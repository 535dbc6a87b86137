package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Integrity trailer shared by every on-disk format (CGR3 graphs, CPR2
// results, CPK2 checkpoints). The payload - magic, header and body - is
// divided into fixed-size blocks and each block's CRC32C recorded in a
// trailer after the payload, discoverable without decoding anything via a
// fixed-size footer at EOF:
//
//	payload:  bytes [0, payloadLen) - magic | header | body
//	trailer:  magic "CKS1" | uvarint blockSize | uvarint nblocks |
//	          nblocks x uint32le CRC32C(payload block)
//	footer:   uint64le payloadLen | uint32le CRC32C(trailer) | magic "CKSZ"
//
// Blocks are aligned to the absolute byte grid (block b covers payload bytes
// [b*blockSize, (b+1)*blockSize), the last one short), so any byte range a
// decoder touches maps to blocks without knowing token boundaries. CRC32C
// (Castagnoli) is hardware-accelerated on every platform this repo targets,
// which is what keeps lazy verification inside the <=2% decode budget.
//
// Verification on the streaming sources is lazy: the trailer itself is
// checked eagerly at open (footer magic, trailer CRC, block-count/size
// consistency), each payload block the first time a decoded range touches
// it, and every remaining block when the stream reaches EOF - so any full
// consumption of the stream has, by the time it reports success, proven
// every payload byte against its checksum, and no corrupt bytes are ever
// handed to a consumer as decoded edges.

// checksumBlockSize is the byte granularity of payload checksums: one CRC
// per 64 KiB matches the cursor window, so lazy verification re-reads each
// byte at most once and the trailer stays ~0.006% of the payload.
const checksumBlockSize = 1 << 16

var (
	trailerMagic = [4]byte{'C', 'K', 'S', '1'}
	footerMagic  = [4]byte{'C', 'K', 'S', 'Z'}
)

// footerLen is the fixed EOF footer: payload length, trailer CRC, magic.
const footerLen = 16

// castagnoli is the CRC32C polynomial table every checksum here uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports detected corruption: a payload block whose bytes no
// longer match their recorded CRC32C, or a damaged trailer/footer. Block is
// the zero-based payload block index, or -1 when the trailer or footer
// itself is damaged; Off/Len locate the corrupt bytes in the file.
type CorruptError struct {
	Path  string
	Block int
	Off   int64
	Len   int64
	What  string
}

func (e *CorruptError) Error() string {
	if e.Block < 0 {
		return fmt.Sprintf("store: %s: corrupt file: %s", e.Path, e.What)
	}
	return fmt.Sprintf("store: %s: corrupt file: %s (block %d, bytes [%d,%d))",
		e.Path, e.What, e.Block, e.Off, e.Off+e.Len)
}

// integrity is the verification state of one checksummed file: the parsed
// trailer plus a bitmap of blocks already proven, so each block's CRC is
// computed at most once however many passes stream the file. The decode-
// ahead goroutine proves blocks while the consumer may call Verify, hence
// the mutex.
type integrity struct {
	path       string
	payloadLen int64
	blockSize  int64
	crcs       []uint32

	remaining atomic.Int64 // unverified blocks; 0 is the hot-path fast out
	mu        sync.Mutex
	done      []uint64 // verified-block bitmap, guarded by mu
	scratch   []byte   // block read buffer, guarded by mu
}

// readFullAt reads exactly len(p) bytes at off, looping over short reads
// (an io.ReaderAt may legally return fewer bytes with a nil error only via
// retryable conditions; the fault injector exercises exactly that).
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	for len(p) > 0 {
		n, err := r.ReadAt(p, off)
		if n > 0 {
			p = p[n:]
			off += int64(n)
			continue
		}
		if err == nil || err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// parseTrailer reads and validates the integrity trailer of a checksummed
// file: footer magic and geometry, trailer CRC, block size and count. The
// payload blocks themselves are not touched - they verify lazily.
func parseTrailer(r io.ReaderAt, size int64, path string) (*integrity, error) {
	corrupt := func(what string) error {
		return &CorruptError{Path: path, Block: -1, What: what}
	}
	if size < footerLen+4 {
		return nil, corrupt("file too short for an integrity footer")
	}
	var foot [footerLen]byte
	if err := readFullAt(r, foot[:], size-footerLen); err != nil {
		return nil, fmt.Errorf("store: %s: reading integrity footer: %w", path, err)
	}
	if [4]byte(foot[12:16]) != footerMagic {
		return nil, corrupt("integrity footer magic missing")
	}
	payloadLen := int64(binary.LittleEndian.Uint64(foot[0:8]))
	wantTrailerCRC := binary.LittleEndian.Uint32(foot[8:12])
	if payloadLen < 4 || payloadLen > size-footerLen {
		return nil, corrupt(fmt.Sprintf("implausible payload length %d for a %d-byte file", payloadLen, size))
	}
	tb := make([]byte, size-footerLen-payloadLen)
	if err := readFullAt(r, tb, payloadLen); err != nil {
		return nil, fmt.Errorf("store: %s: reading integrity trailer: %w", path, err)
	}
	if crc32.Checksum(tb, castagnoli) != wantTrailerCRC {
		return nil, corrupt("integrity trailer checksum mismatch")
	}
	if len(tb) < 4 || [4]byte(tb[:4]) != trailerMagic {
		return nil, corrupt("integrity trailer magic missing")
	}
	rest := tb[4:]
	blockSize, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, corrupt("integrity trailer block size unreadable")
	}
	rest = rest[n:]
	nblocks, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, corrupt("integrity trailer block count unreadable")
	}
	rest = rest[n:]
	if blockSize < 1<<10 || blockSize > 1<<26 {
		return nil, corrupt(fmt.Sprintf("implausible checksum block size %d", blockSize))
	}
	want := uint64((payloadLen + int64(blockSize) - 1) / int64(blockSize))
	if nblocks != want {
		return nil, corrupt(fmt.Sprintf("trailer declares %d blocks, payload of %d bytes needs %d", nblocks, payloadLen, want))
	}
	if uint64(len(rest)) != 4*nblocks {
		return nil, corrupt(fmt.Sprintf("trailer carries %d checksum bytes, %d blocks need %d", len(rest), nblocks, 4*nblocks))
	}
	g := &integrity{
		path:       path,
		payloadLen: payloadLen,
		blockSize:  int64(blockSize),
		crcs:       make([]uint32, nblocks),
		done:       make([]uint64, (nblocks+63)/64),
	}
	for i := range g.crcs {
		g.crcs[i] = binary.LittleEndian.Uint32(rest[4*i:])
	}
	g.remaining.Store(int64(nblocks))
	return g, nil
}

// blockRange returns the payload byte range of block b.
func (g *integrity) blockRange(b int) (lo, hi int64) {
	lo = int64(b) * g.blockSize
	hi = lo + g.blockSize
	if hi > g.payloadLen {
		hi = g.payloadLen
	}
	return lo, hi
}

// inMemory is an io.ReaderAt that holds the file's bytes in memory (a
// mapping, a file read in chunks): its blocks are checksummed in place,
// with no copy and no scratch buffer.
type inMemory interface {
	// crcAt returns the CRC32C of bytes [lo, hi), and false when they are
	// not in memory.
	crcAt(lo, hi int64) (uint32, bool)
}

// verifyBlockLocked proves block b against its recorded CRC, reading the raw
// bytes through r. Called with mu held; marks the block verified on success.
func (g *integrity) verifyBlockLocked(r io.ReaderAt, b int) error {
	lo, hi := g.blockRange(b)
	crc, ok := uint32(0), false
	if m, isMem := r.(inMemory); isMem {
		crc, ok = m.crcAt(lo, hi)
	}
	if !ok {
		if g.scratch == nil {
			g.scratch = make([]byte, g.blockSize)
		}
		buf := g.scratch[:hi-lo]
		if err := readFullAt(r, buf, lo); err != nil {
			return fmt.Errorf("store: %s: reading block %d for verification: %w", g.path, b, err)
		}
		crc = crc32.Checksum(buf, castagnoli)
	}
	if crc != g.crcs[b] {
		return &CorruptError{Path: g.path, Block: b, Off: lo, Len: hi - lo, What: "block checksum mismatch"}
	}
	g.done[b/64] |= 1 << (b % 64)
	g.remaining.Add(-1)
	return nil
}

// verifyRange proves every not-yet-verified block overlapping payload bytes
// [lo, hi), the lazy decode-path hook: a decoded range is only handed to the
// consumer once the bytes it came from are proven. A range past the payload
// is itself corruption (the decoder ran into the trailer).
func (g *integrity) verifyRange(r io.ReaderAt, lo, hi int64) error {
	if hi <= lo {
		return nil
	}
	if hi > g.payloadLen {
		return &CorruptError{Path: g.path, Block: -1, What: fmt.Sprintf("decode ran past the %d-byte payload", g.payloadLen)}
	}
	if g.remaining.Load() == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for b := int(lo / g.blockSize); b <= int((hi-1)/g.blockSize); b++ {
		if g.done[b/64]&(1<<(b%64)) != 0 {
			continue
		}
		if err := g.verifyBlockLocked(r, b); err != nil {
			return err
		}
	}
	return nil
}

// verifyAll proves every remaining block, in order, so the first corrupt
// block of a damaged file is the one reported.
func (g *integrity) verifyAll(r io.ReaderAt) error {
	if g.remaining.Load() == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for b := range g.crcs {
		if g.done[b/64]&(1<<(b%64)) != 0 {
			continue
		}
		if err := g.verifyBlockLocked(r, b); err != nil {
			return err
		}
	}
	return nil
}

// verifyChunked parses the trailer of a complete file held in chunks,
// proves every payload block eagerly, and returns the payload. It is
// readSealed's last step, behind Read, ReadResult and ReadCheckpoint: an
// io.Reader cannot seek to the footer, so the bytes are already buffered
// and the verification order is simply eager.
func verifyChunked(f chunked, path string) (chunked, error) {
	g, err := parseTrailer(f, f.size, path)
	if err != nil {
		return chunked{}, err
	}
	if err := g.verifyAll(f); err != nil {
		return chunked{}, err
	}
	return f.upTo(g.payloadLen), nil
}

// crcWriter accumulates per-block CRC32C checksums of everything written
// through it, then emits the trailer and footer. It buffers nothing: bytes
// pass straight to the underlying writer while the running block checksum
// folds them in.
type crcWriter struct {
	w        io.Writer
	n        int64 // payload bytes written so far
	blockCRC uint32
	fill     int64 // bytes of the current block already folded in
	crcs     []uint32
	err      error
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: w}
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	for rest := p[:n]; len(rest) > 0; {
		take := checksumBlockSize - cw.fill
		if take > int64(len(rest)) {
			take = int64(len(rest))
		}
		cw.blockCRC = crc32.Update(cw.blockCRC, castagnoli, rest[:take])
		cw.fill += take
		rest = rest[take:]
		if cw.fill == checksumBlockSize {
			cw.crcs = append(cw.crcs, cw.blockCRC)
			cw.blockCRC, cw.fill = 0, 0
		}
	}
	cw.n += int64(n)
	return n, err
}

// writeTrailer seals the payload: it flushes the final partial block's CRC
// and writes the trailer and footer to the underlying writer.
func (cw *crcWriter) writeTrailer() error {
	crcs := cw.crcs
	if cw.fill > 0 {
		crcs = append(crcs, cw.blockCRC)
	}
	var tmp [binary.MaxVarintLen64]byte
	tb := make([]byte, 0, 16+4*len(crcs))
	tb = append(tb, trailerMagic[:]...)
	tb = append(tb, tmp[:binary.PutUvarint(tmp[:], checksumBlockSize)]...)
	tb = append(tb, tmp[:binary.PutUvarint(tmp[:], uint64(len(crcs)))]...)
	for _, c := range crcs {
		tb = binary.LittleEndian.AppendUint32(tb, c)
	}
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[0:8], uint64(cw.n))
	binary.LittleEndian.PutUint32(foot[8:12], crc32.Checksum(tb, castagnoli))
	copy(foot[12:16], footerMagic[:])
	if _, err := cw.w.Write(tb); err != nil {
		return err
	}
	_, err := cw.w.Write(foot[:])
	return err
}

// VerifyInfo describes what VerifyFile found: the detected on-disk kind and
// the verified geometry.
type VerifyInfo struct {
	// Kind is the magic name: CGR3 for graphs, CPR2 for saved results, CPK2
	// for checkpoints.
	Kind string
	// Blocks is the number of payload checksum blocks proven.
	Blocks int
	// PayloadBytes and SizeBytes split the file into covered payload and
	// trailer overhead.
	PayloadBytes int64
	SizeBytes    int64
}

// VerifyFile checksum-scans path: it identifies the format from the magic
// (CGR3, CPR2 or CPK2; anything else is ErrBadMagic) and proves every
// payload block in order, so a corruption report (*CorruptError) names the
// first corrupt block. This is graphstat -verify.
func VerifyFile(path string) (VerifyInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return VerifyInfo{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return VerifyInfo{}, err
	}
	info := VerifyInfo{SizeBytes: fi.Size(), PayloadBytes: fi.Size()}
	var m [4]byte
	if err := readFullAt(f, m[:], 0); err != nil {
		return info, fmt.Errorf("store: %s: reading magic: %w", path, err)
	}
	switch m {
	case magic3, resultMagic2, checkpointMagic:
		info.Kind = string(m[:])
	default:
		return info, ErrBadMagic
	}
	g, err := parseTrailer(f, fi.Size(), path)
	if err != nil {
		return info, err
	}
	info.Blocks = len(g.crcs)
	info.PayloadBytes = g.payloadLen
	return info, g.verifyAll(f)
}
