package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spaceproc/internal/dataset"
)

// walStack builds a small deterministic baseline whose pixels encode the
// tag, so replayed stacks are distinguishable.
func walStack(tag, frames, w, h int) *dataset.Stack {
	s := dataset.NewStack(frames, w, h)
	for f, fr := range s.Frames {
		for i := range fr.Pix {
			fr.Pix[i] = uint16((tag*1031 + f*97 + i) % 4096)
		}
	}
	return s
}

func samePixels(t *testing.T, a, b *dataset.Stack) {
	t.Helper()
	if a.Len() != b.Len() || a.Width() != b.Width() || a.Height() != b.Height() {
		t.Fatalf("geometry %dx%dx%d vs %dx%dx%d",
			a.Len(), a.Width(), a.Height(), b.Len(), b.Width(), b.Height())
	}
	for f := range a.Frames {
		for i := range a.Frames[f].Pix {
			if a.Frames[f].Pix[i] != b.Frames[f].Pix[i] {
				t.Fatalf("pixel mismatch frame %d offset %d", f, i)
			}
		}
	}
}

func TestStackDigest(t *testing.T) {
	a := walStack(1, 4, 8, 8)
	b := walStack(1, 4, 8, 8)
	if StackDigest(a) != StackDigest(b) {
		t.Fatal("identical stacks must share a digest")
	}
	b.Frames[2].Pix[17]++
	if StackDigest(a) == StackDigest(b) {
		t.Fatal("one flipped pixel must change the digest")
	}
	// Geometry is part of the address: same pixel bytes, different shape.
	c := walStack(1, 4, 8, 8)
	d := &dataset.Stack{}
	for _, fr := range c.Frames {
		d.Frames = append(d.Frames, &dataset.Image{Width: 16, Height: 4, Pix: fr.Pix})
	}
	if StackDigest(c) == StackDigest(d) {
		t.Fatal("reshaped stack must change the digest")
	}
}

// pinStack builds a baseline whose pixels use both bytes of the 16-bit
// range, so a byte-order slip anywhere in the layout changes the bytes.
func pinStack(frames, w, h int) *dataset.Stack {
	s := dataset.NewStack(frames, w, h)
	for f, fr := range s.Frames {
		for i := range fr.Pix {
			fr.Pix[i] = uint16((f+1)*0x9e37) ^ uint16(i*0x85eb)
		}
	}
	return s
}

// TestStackDigestGolden pins the content address byte for byte: a
// digest change silently empties every dedupe cache and orphans every
// logged digest, so the values here were taken once and must not move.
func TestStackDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		name         string
		frames, w, h int
		want         string
	}{
		{"1x1", 3, 1, 1, "2f55d0cc39e48e1c82c510df3039de05ec04189a12d9768079962d83646080eb"},
		{"odd_width", 5, 7, 3, "f1b1d6e65d46c62b0a6fe27202ef62aa94e9944e80d122cdec9f8a4b626a63db"},
		{"single_frame", 1, 16, 16, "9b30b3dc5e23bfd10bb9a0a171ff96850c8fe9bfcb8fb54cc68c3cac72cd9025"},
	} {
		got := StackDigest(pinStack(tc.frames, tc.w, tc.h))
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("%s: digest %x, want %s", tc.name, got[:], tc.want)
		}
	}
}

// TestWALBytesGolden pins the on-disk log: the SHA-256 of ingest.wal after
// fixed appends and a commit, with an odd chunk size that makes CHUNK
// records straddle frame boundaries and split a pixel's two bytes. A log
// written by one build must replay on the next, so these bytes must not
// move either; the log must also replay to the same stacks.
func TestWALBytesGolden(t *testing.T) {
	const want = "60ed39cc4d60cc5d9e07bed7dde6444603fc8d6b96a24573b86890054e933a3e"
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{ChunkBytes: 99})
	if err != nil {
		t.Fatal(err)
	}
	stacks := []*dataset.Stack{pinStack(3, 7, 5), pinStack(1, 1, 1), pinStack(4, 9, 2)}
	var seqs []uint64
	for i, s := range stacks {
		seq, err := w.Append(fmt.Sprintf("client%d", i), fmt.Sprintf("key%d", i), StackDigest(s), s)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if err := w.Commit(seqs[1]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(raw); hex.EncodeToString(got[:]) != want {
		t.Errorf("ingest.wal (%d bytes) sha256 %x, want %s", len(raw), got[:], want)
	}

	w2, entries, rep, err := OpenWAL(dir, WALOptions{ChunkBytes: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(entries) != 2 || rep.Corrupt != 0 || rep.Committed != 1 {
		t.Fatalf("replayed %d entries, report %+v", len(entries), rep)
	}
	for i, want := range []*dataset.Stack{stacks[0], stacks[2]} {
		samePixels(t, want, entries[i].Stack)
		if entries[i].Digest != StackDigest(want) {
			t.Fatalf("entry %d: digest not preserved", i)
		}
	}
}

func TestWALAppendReplayCommit(t *testing.T) {
	dir := t.TempDir()
	w, entries, rep, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || rep.Entries != 0 {
		t.Fatalf("fresh wal not empty: %d entries, report %+v", len(entries), rep)
	}

	s1, s2, s3 := walStack(1, 3, 8, 4), walStack(2, 3, 8, 4), walStack(3, 3, 8, 4)
	seq1, err := w.Append("alice", "k1", StackDigest(s1), s1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("bob", "k2", StackDigest(s2), s2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("carol", "", StackDigest(s3), s3); err != nil {
		t.Fatal(err)
	}
	if w.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", w.Pending())
	}
	if err := w.Commit(seq1); err != nil {
		t.Fatal(err)
	}
	if w.Pending() != 2 {
		t.Fatalf("pending = %d after commit, want 2", w.Pending())
	}
	w.Close()

	// Recovery: the two uncommitted entries come back, in append order,
	// bit-identical.
	w2, entries, rep, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rep.Entries != 3 || rep.Committed != 1 || rep.Corrupt != 0 || rep.Truncated {
		t.Fatalf("recovery report %+v", rep)
	}
	if len(entries) != 2 {
		t.Fatalf("replayable = %d, want 2", len(entries))
	}
	if entries[0].Seq >= entries[1].Seq {
		t.Fatal("entries not in sequence order")
	}
	if entries[0].Client != "bob" || entries[0].Key != "k2" {
		t.Fatalf("entry 0 = %q/%q", entries[0].Client, entries[0].Key)
	}
	if entries[1].Client != "carol" || entries[1].Key != "" {
		t.Fatalf("entry 1 = %q/%q", entries[1].Client, entries[1].Key)
	}
	samePixels(t, s2, entries[0].Stack)
	samePixels(t, s3, entries[1].Stack)
	if entries[0].Digest != StackDigest(s2) {
		t.Fatal("digest not preserved")
	}

	// New appends continue the sequence past everything seen.
	seqNew, err := w2.Append("dave", "", StackDigest(s1), s1)
	if err != nil {
		t.Fatal(err)
	}
	if seqNew <= entries[1].Seq {
		t.Fatalf("new seq %d not past recovered %d", seqNew, entries[1].Seq)
	}
}

func TestWALChunkingLargePayload(t *testing.T) {
	dir := t.TempDir()
	// 3 frames x 64x64 x 2 bytes = 24576 payload bytes; a 1 KiB cap
	// forces 24 chunks.
	w, _, _, err := OpenWAL(dir, WALOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := walStack(9, 3, 64, 64)
	if _, err := w.Append("chunky", "", StackDigest(s), s); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, entries, rep, err := OpenWAL(dir, WALOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(entries) != 1 || rep.Corrupt != 0 {
		t.Fatalf("chunked entry did not survive: %d entries, report %+v", len(entries), rep)
	}
	samePixels(t, s, entries[0].Stack)
}

func TestWALTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := walStack(1, 2, 8, 8), walStack(2, 2, 8, 8)
	if _, err := w.Append("a", "", StackDigest(s1), s1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("b", "", StackDigest(s2), s2); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the tail mid-record, as a crash mid-append would.
	path := filepath.Join(dir, "ingest.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, entries, rep, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !rep.Truncated {
		t.Fatalf("report %+v should flag truncation", rep)
	}
	if len(entries) != 1 || entries[0].Client != "a" {
		t.Fatalf("intact prefix should survive: %d entries", len(entries))
	}
	samePixels(t, s1, entries[0].Stack)
}

func TestWALCorruptChunkDropsEntry(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := walStack(1, 2, 8, 8), walStack(2, 2, 8, 8)
	if _, err := w.Append("victim", "", StackDigest(s1), s1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("survivor", "", StackDigest(s2), s2); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip one payload byte inside the first entry's chunk; its record
	// hash must catch it and only that entry is lost.
	path := filepath.Join(dir, "ingest.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Entry 1 layout: ENTRY record, then one CHUNK record whose payload
	// starts after the chunk header (magic+type+len, seq+index).
	entryBody := 8 + 32 + 16 + 2 + len("victim") + 2
	chunkPayload := walHeaderSize + entryBody + 32 + walHeaderSize + 12
	raw[chunkPayload+5] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, entries, rep, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rep.Corrupt == 0 {
		t.Fatalf("report %+v should count the torn record", rep)
	}
	if len(entries) != 1 || entries[0].Client != "survivor" {
		t.Fatalf("want only the survivor, got %d entries", len(entries))
	}
	samePixels(t, s2, entries[0].Stack)
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := walStack(4, 2, 16, 16)
	var seqs []uint64
	for i := 0; i < 8; i++ {
		seq, err := w.Append("c", "", StackDigest(s), s)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	path := filepath.Join(dir, "ingest.wal")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if err := w.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 0 {
		t.Fatalf("fully-committed log should compact to empty, got %d bytes (was %d)",
			after.Size(), before.Size())
	}
	// The WAL stays writable after compaction.
	if _, err := w.Append("c", "", StackDigest(s), s); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, entries, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(entries) != 1 {
		t.Fatalf("post-compaction append lost: %d entries", len(entries))
	}
}

func TestWALSyncOption(t *testing.T) {
	// Sync mode exercises the fsync paths; correctness is the same.
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := walStack(5, 2, 8, 8)
	seq, err := w.Append("s", "", StackDigest(s), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
}

func TestWALClosedErrors(t *testing.T) {
	w, _, _, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	s := walStack(1, 1, 2, 2)
	if _, err := w.Append("x", "", StackDigest(s), s); err == nil {
		t.Fatal("append on closed wal should error")
	}
	if err := w.Commit(0); err == nil {
		t.Fatal("commit on closed wal should error")
	}
}
