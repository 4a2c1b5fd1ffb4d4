package store

// The write-ahead ingest log: admitted baselines are appended as
// size-capped, self-describing, hash-verified chunk records before the
// serving tier batches them onto the pool, so a daemon that crashes with
// admitted-but-unserved requests can replay them on restart instead of
// dropping them — the checkpoint/replay recovery idiom applied to the
// ingest path.
//
// On-disk format (one append-only file, dir/ingest.wal):
//
//	record  = magic "SPW1" | type u8 | bodyLen u32 BE | body | sha256(body)
//	ENTRY   = seq u64 | digest [32] | frames u32 | width u32 | height u32 |
//	          chunks u32 | clientLen u16 | client | keyLen u16 | key
//	CHUNK   = seq u64 | index u32 | payload (pixels, uint16 LE, row-major,
//	          frames concatenated; at most ChunkBytes per record)
//	COMMIT  = seq u64
//
// Every record carries its own integrity hash, so replay never trusts a
// byte the crash may have torn: a record whose hash fails verification is
// dropped (and its entry with it); a short read at the tail is the normal
// artifact of dying mid-append and simply ends the scan. An entry is
// replayable iff its ENTRY and every CHUNK landed intact and no COMMIT
// for its sequence number follows.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"spaceproc/internal/dataset"
)

// WAL format constants.
const (
	// DefaultWALChunkBytes caps the payload bytes per CHUNK record.
	DefaultWALChunkBytes = 256 << 10
	// walFileName is the log file inside the WAL directory.
	walFileName = "ingest.wal"
	// walMagic opens every record.
	walMagic = "SPW1"
	// walHeaderSize is magic + type + bodyLen.
	walHeaderSize = 4 + 1 + 4
	// maxWALBody bounds one record body so a corrupted length field
	// cannot ask the scanner for an absurd allocation.
	maxWALBody = 64 << 20
)

// Record types.
const (
	recEntry  byte = 1
	recChunk  byte = 2
	recCommit byte = 3
)

// Digest is the content address of a baseline: SHA-256 over its geometry
// and pixel bytes. Two stacks share a Digest exactly when they are
// bit-identical, which is what lets repeat uploads of the same baseline
// skip preprocessing entirely.
type Digest [sha256.Size]byte

// String renders the digest in hex for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// StackDigest content-addresses a stack: SHA-256 over frame count,
// geometry, and every pixel in frame order.
func StackDigest(s *dataset.Stack) Digest {
	h := sha256.New()
	var dims [12]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(s.Len()))
	binary.LittleEndian.PutUint32(dims[4:], uint32(s.Width()))
	binary.LittleEndian.PutUint32(dims[8:], uint32(s.Height()))
	h.Write(dims[:])
	for _, f := range s.Frames {
		h.Write(f.Pix.LE())
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// WALOptions tunes a WAL.
type WALOptions struct {
	// ChunkBytes caps the payload per CHUNK record; 0 selects
	// DefaultWALChunkBytes.
	ChunkBytes int
	// Sync fsyncs the log after every append and commit, so an entry
	// acknowledged to the ingest path survives power loss, not just a
	// process crash. Off, the OS page cache decides.
	Sync bool
}

// WALEntry is one replayable admitted-but-unserved request recovered
// from the log.
type WALEntry struct {
	Seq    uint64
	Client string
	Key    string
	Digest Digest
	Stack  *dataset.Stack
}

// WALReport summarizes one recovery scan.
type WALReport struct {
	// Entries is the number of intact ENTRY records seen.
	Entries int
	// Committed is how many of them had COMMIT records.
	Committed int
	// Corrupt counts records dropped for an integrity-hash mismatch,
	// an impossible length, or an entry whose chunks never all arrived.
	Corrupt int
	// Truncated is true when the scan ended at a torn record — the
	// normal artifact of a crash mid-append.
	Truncated bool
}

// WAL is the write-ahead ingest log. All methods are safe for concurrent
// use.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	opt     WALOptions
	nextSeq uint64
	pending map[uint64]bool // appended, not yet committed
	// commitsSinceCompact triggers background-free compaction: once
	// enough committed entries accumulate the log is rewritten with only
	// the pending ones, bounding growth on a long-running daemon.
	commitsSinceCompact int
	closed              bool
}

// compactEvery bounds how many committed entries may accumulate in the
// log before Commit rewrites it down to the pending set.
const compactEvery = 128

// OpenWAL opens (creating if needed) the ingest log in dir, scans it for
// admitted-but-unserved entries, verifies every record hash, compacts
// the file down to the surviving pending entries, and returns them in
// append (sequence) order — the order a replay must preserve.
func OpenWAL(dir string, opt WALOptions) (*WAL, []*WALEntry, *WALReport, error) {
	if opt.ChunkBytes <= 0 {
		opt.ChunkBytes = DefaultWALChunkBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	path := filepath.Join(dir, walFileName)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	entries, rep, nextSeq := scanWAL(raw)

	w := &WAL{
		path:    path,
		opt:     opt,
		nextSeq: nextSeq,
		pending: make(map[uint64]bool),
	}
	for _, e := range entries {
		w.pending[e.Seq] = true
	}
	// Rewrite the log with only the pending entries: committed and torn
	// records do not survive a restart, so the file cannot grow without
	// bound across crash/recover cycles.
	if err := w.rewrite(entries); err != nil {
		return nil, nil, nil, err
	}
	return w, entries, rep, nil
}

// rewrite replaces the log file with exactly the given entries and
// reopens the append handle. Callers hold w.mu (or own w exclusively).
func (w *WAL) rewrite(entries []*WALEntry) error {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	for _, e := range entries {
		if err := writeEntry(f, e, w.opt.ChunkBytes); err != nil {
			f.Close()
			return err
		}
	}
	if w.opt.Sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: wal: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	w.f, err = os.OpenFile(w.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	w.commitsSinceCompact = 0
	return nil
}

// Append logs one admitted baseline and returns its sequence number. The
// entry is replayable until Commit marks it served.
func (w *WAL) Append(client, key string, digest Digest, s *dataset.Stack) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("store: wal closed")
	}
	seq := w.nextSeq
	w.nextSeq++
	e := &WALEntry{Seq: seq, Client: client, Key: key, Digest: digest, Stack: s}
	if err := writeEntry(w.f, e, w.opt.ChunkBytes); err != nil {
		return 0, err
	}
	if w.opt.Sync {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("store: wal: %w", err)
		}
	}
	w.pending[seq] = true
	return seq, nil
}

// Commit marks the entry served: it will not replay after a restart.
// The commit record is fsynced under WALOptions.Sync, so "served" is as
// durable as "admitted".
func (w *WAL) Commit(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal closed")
	}
	body := make([]byte, 8)
	binary.BigEndian.PutUint64(body, seq)
	if err := writeRecord(w.f, recCommit, body); err != nil {
		return err
	}
	if w.opt.Sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal: %w", err)
		}
	}
	delete(w.pending, seq)
	w.commitsSinceCompact++
	if w.commitsSinceCompact >= compactEvery {
		return w.compactLocked()
	}
	return nil
}

// Pending reports how many appended entries have not been committed.
func (w *WAL) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// Compact rewrites the log down to the pending entries, dropping every
// committed record. Commit triggers it automatically every compactEvery
// commits; call it directly to reclaim space eagerly.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal closed")
	}
	return w.compactLocked()
}

// compactLocked re-reads the file, keeps records of pending entries, and
// rewrites. Callers hold w.mu.
func (w *WAL) compactLocked() error {
	raw, err := os.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	entries, _, _ := scanWAL(raw)
	keep := entries[:0]
	for _, e := range entries {
		if w.pending[e.Seq] {
			keep = append(keep, e)
		}
	}
	return w.rewrite(keep)
}

// Close releases the file handle. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f != nil {
		err := w.f.Close()
		w.f = nil
		return err
	}
	return nil
}

// writeEntry appends one ENTRY record and its size-capped CHUNK records.
// The payload is the frames' little-endian pixel bytes back to back; each
// CHUNK is filled from those views into one reused record buffer, so a
// chunk may start in one frame and end in another.
func writeEntry(f *os.File, e *WALEntry, chunkBytes int) error {
	s := e.Stack
	size := 0
	for _, fr := range s.Frames {
		size += 2 * len(fr.Pix)
	}
	chunks := (size + chunkBytes - 1) / chunkBytes
	if chunks == 0 {
		chunks = 1 // an empty payload still writes one (empty) chunk
	}

	body := make([]byte, 0, 8+32+16+4+len(e.Client)+len(e.Key))
	body = binary.BigEndian.AppendUint64(body, e.Seq)
	body = append(body, e.Digest[:]...)
	body = binary.BigEndian.AppendUint32(body, uint32(s.Len()))
	body = binary.BigEndian.AppendUint32(body, uint32(s.Width()))
	body = binary.BigEndian.AppendUint32(body, uint32(s.Height()))
	body = binary.BigEndian.AppendUint32(body, uint32(chunks))
	body = binary.BigEndian.AppendUint16(body, uint16(len(e.Client)))
	body = append(body, e.Client...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(e.Key)))
	body = append(body, e.Key...)
	if err := writeRecord(f, recEntry, body); err != nil {
		return err
	}

	cb := make([]byte, 0, 12+min(chunkBytes, size))
	rest, le := s.Frames, []byte(nil) // le: the current frame's unwritten bytes
	for i := 0; i < chunks; i++ {
		cb = binary.BigEndian.AppendUint64(cb[:0], e.Seq)
		cb = binary.BigEndian.AppendUint32(cb, uint32(i))
		for len(cb) < cap(cb) && (len(le) > 0 || len(rest) > 0) {
			if len(le) == 0 {
				le, rest = rest[0].Pix.LE(), rest[1:]
			}
			n := copy(cb[len(cb):cap(cb)], le)
			cb, le = cb[:len(cb)+n], le[n:]
		}
		if err := writeRecord(f, recChunk, cb); err != nil {
			return err
		}
	}
	return nil
}

// writeRecord frames one record: magic | type | len | body | sha256(body).
func writeRecord(f *os.File, typ byte, body []byte) error {
	hdr := make([]byte, 0, walHeaderSize)
	hdr = append(hdr, walMagic...)
	hdr = append(hdr, typ)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
	sum := sha256.Sum256(body)
	for _, b := range [][]byte{hdr, body, sum[:]} {
		if _, err := f.Write(b); err != nil {
			return fmt.Errorf("store: wal: %w", err)
		}
	}
	return nil
}

// pendingEntry accumulates one entry's records during a scan.
type pendingEntry struct {
	entry  *WALEntry
	frames int
	width  int
	height int
	chunks int
	got    int
	buf    []byte
}

// scanWAL walks the log, verifying every record, and returns the intact
// uncommitted entries in sequence order plus the next free sequence
// number.
func scanWAL(raw []byte) ([]*WALEntry, *WALReport, uint64) {
	rep := &WALReport{}
	open := make(map[uint64]*pendingEntry)
	committed := make(map[uint64]bool)
	var nextSeq uint64

	off := 0
	for off < len(raw) {
		if len(raw)-off < walHeaderSize {
			rep.Truncated = true
			break
		}
		if string(raw[off:off+4]) != walMagic {
			// The framing itself is untrustworthy past this point.
			rep.Truncated = true
			break
		}
		typ := raw[off+4]
		n := int(binary.BigEndian.Uint32(raw[off+5 : off+9]))
		if n > maxWALBody {
			rep.Truncated = true
			break
		}
		if len(raw)-off-walHeaderSize < n+sha256.Size {
			rep.Truncated = true
			break
		}
		body := raw[off+walHeaderSize : off+walHeaderSize+n]
		sum := raw[off+walHeaderSize+n : off+walHeaderSize+n+sha256.Size]
		off += walHeaderSize + n + sha256.Size
		if sha256.Sum256(body) != [sha256.Size]byte(sum) {
			// The record is torn but the framing held: drop it and keep
			// scanning. Whatever entry it belonged to loses a piece and
			// will fail completeness below.
			rep.Corrupt++
			continue
		}
		switch typ {
		case recEntry:
			e, ok := decodeEntry(body)
			if !ok {
				rep.Corrupt++
				continue
			}
			rep.Entries++
			if e.entry.Seq >= nextSeq {
				nextSeq = e.entry.Seq + 1
			}
			open[e.entry.Seq] = e
		case recChunk:
			if len(body) < 12 {
				rep.Corrupt++
				continue
			}
			seq := binary.BigEndian.Uint64(body[0:8])
			idx := int(binary.BigEndian.Uint32(body[8:12]))
			pe := open[seq]
			if pe == nil || idx != pe.got {
				// A chunk with no entry, or out of order: the entry is
				// unreconstructable.
				if pe != nil {
					delete(open, seq)
					rep.Corrupt++
				}
				continue
			}
			pe.buf = append(pe.buf, body[12:]...)
			pe.got++
		case recCommit:
			if len(body) != 8 {
				rep.Corrupt++
				continue
			}
			seq := binary.BigEndian.Uint64(body)
			if open[seq] != nil {
				rep.Committed++
			}
			committed[seq] = true
			delete(open, seq)
		default:
			rep.Corrupt++
		}
	}

	var out []*WALEntry
	for seq, pe := range open {
		if committed[seq] {
			continue
		}
		if pe.got != pe.chunks || len(pe.buf) != pe.frames*pe.width*pe.height*2 {
			rep.Corrupt++
			continue
		}
		st := &dataset.Stack{Frames: make([]*dataset.Image, pe.frames)}
		n := pe.width * pe.height * 2
		for i := range st.Frames {
			fr := &dataset.Image{Width: pe.width, Height: pe.height}
			fr.Pix.GobDecode(pe.buf[i*n : (i+1)*n]) //nolint:errcheck // n is even
			st.Frames[i] = fr
		}
		pe.entry.Stack = st
		out = append(out, pe.entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, rep, nextSeq
}

// decodeEntry parses an ENTRY body.
func decodeEntry(body []byte) (*pendingEntry, bool) {
	if len(body) < 8+sha256.Size+16+2 {
		return nil, false
	}
	e := &WALEntry{Seq: binary.BigEndian.Uint64(body[0:8])}
	copy(e.Digest[:], body[8:8+sha256.Size])
	p := body[8+sha256.Size:]
	frames := int(binary.BigEndian.Uint32(p[0:4]))
	width := int(binary.BigEndian.Uint32(p[4:8]))
	height := int(binary.BigEndian.Uint32(p[8:12]))
	chunks := int(binary.BigEndian.Uint32(p[12:16]))
	p = p[16:]
	if len(p) < 2 {
		return nil, false
	}
	cl := int(binary.BigEndian.Uint16(p[0:2]))
	p = p[2:]
	if len(p) < cl+2 {
		return nil, false
	}
	e.Client = string(p[:cl])
	p = p[cl:]
	kl := int(binary.BigEndian.Uint16(p[0:2]))
	p = p[2:]
	if len(p) != kl {
		return nil, false
	}
	e.Key = string(p)
	if frames < 0 || width < 0 || height < 0 || chunks <= 0 {
		return nil, false
	}
	return &pendingEntry{entry: e, frames: frames, width: width, height: height, chunks: chunks}, true
}
