package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bionav/internal/recordlog"
)

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func rec(i int) Record {
	return Record{
		Type:    TypeAction,
		Session: "s00000001",
		At:      int64(i + 1),
		Action:  json.RawMessage(fmt.Sprintf(`{"kind":"EXPAND","node":%d}`, i)),
	}
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	if err := j.Append(Record{Type: TypeCreate, Session: "s00000001", Keywords: "brca1", Policy: "heuristic", At: 7}); err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 5)
	if err := j.Append(Record{Type: TypeClose, Session: "s00000001", At: 99}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	got := j2.Recovered()
	if len(got) != 7 {
		t.Fatalf("recovered %d records, want 7", len(got))
	}
	if got[0].Type != TypeCreate || got[0].Keywords != "brca1" || got[0].Policy != "heuristic" {
		t.Fatalf("create record mangled: %+v", got[0])
	}
	for i := 1; i <= 5; i++ {
		want := rec(i - 1)
		if got[i].Type != TypeAction || got[i].At != want.At || string(got[i].Action) != string(want.Action) {
			t.Fatalf("record %d mangled: %+v", i, got[i])
		}
	}
	if got[6].Type != TypeClose {
		t.Fatalf("last record = %+v, want close", got[6])
	}
	if j2.TornTails() != 0 {
		t.Fatalf("clean journal reported %d torn tails", j2.TornTails())
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 256})
	appendN(t, j, 50)
	segs, err := j.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 50 {
		t.Fatalf("recovered %d records across segments, want 50", len(j2.Recovered()))
	}
}

// corruptTail flips a byte inside the last frame of the newest non-empty
// segment, simulating a torn write.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no segments in %s", dir)
	}
	newest, size := "", int64(-1)
	for _, p := range entries {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > int64(len(recordlog.Magic)) && (newest == "" || p > newest) {
			newest, size = p, st.Size()
		}
	}
	if newest == "" {
		t.Fatalf("no non-empty segment, sizes up to %d", size)
	}
	return newest
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, j, 10)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the newest segment mid-frame.
	seg := newestSegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 9 {
		t.Fatalf("recovered %d records after torn tail, want 9", len(j2.Recovered()))
	}
	if j2.TornTails() != 1 {
		t.Fatalf("TornTails = %d, want 1", j2.TornTails())
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncation is persistent: a third open is clean.
	j3 := mustOpen(t, dir, Options{})
	if len(j3.Recovered()) != 9 || j3.TornTails() != 0 {
		t.Fatalf("third open: %d records, %d torn tails; want 9, 0",
			len(j3.Recovered()), j3.TornTails())
	}
}

func TestCorruptFrameCRC(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, j, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := newestSegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip a payload byte of the last record
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 2 || j2.TornTails() != 1 {
		t.Fatalf("after CRC corruption: %d records, %d torn tails; want 2, 1",
			len(j2.Recovered()), j2.TornTails())
	}
}

func TestMidJournalCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 256})
	appendN(t, j, 50)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := j.segments()
	if err != nil || len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %v (%v)", segs, err)
	}
	// Corrupt the first segment's second frame length: everything after
	// that point — including whole later segments — must be dropped.
	first := j.segPath(segs[0])
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := binary.LittleEndian.Uint32(b[len(recordlog.Magic):])
	off := len(recordlog.Magic) + recordlog.HeaderSize + int(firstLen)
	binary.LittleEndian.PutUint32(b[off:], recordlog.MaxRecord+1)
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 1 {
		t.Fatalf("recovered %d records, want the 1 before the corruption", len(j2.Recovered()))
	}
	segs2, err := j2.segments()
	if err != nil {
		t.Fatal(err)
	}
	// Only the truncated first segment and the freshly opened one remain.
	if len(segs2) != 2 {
		t.Fatalf("later segments not dropped: %v", segs2)
	}
}

// TestZeroFilledTail: zero bytes the file system appended without their
// data are a torn tail — recovery keeps every record before them, counts
// one torn tail, and cuts the zeroes off.
func TestZeroFilledTail(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, j, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := newestSegment(t, dir)
	intact, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(intact, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 2 || j2.TornTails() != 1 {
		t.Fatalf("recovered %d records, %d torn tails; want 2, 1", len(j2.Recovered()), j2.TornTails())
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(intact)) {
		t.Fatalf("segment not cut back to %d bytes: %v", len(intact), err)
	}
	if err := j2.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := mustOpen(t, dir, Options{})
	if len(j3.Recovered()) != 3 || j3.TornTails() != 0 {
		t.Fatalf("after the next append: %d records, %d torn tails; want 3, 0", len(j3.Recovered()), j3.TornTails())
	}
}

// TestEveryCrashPoint cuts a segment at every byte from the end of its
// magic to EOF: each cut must recover exactly the records whose frames
// end at or before it, counting a torn tail exactly when the cut falls
// inside a frame.
func TestEveryCrashPoint(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncOff})
	var ends []int64 // segment size after each record
	for i, n := range []int{1, 40, 3, 200, 17} {
		r := Record{Type: TypeCreate, Session: fmt.Sprintf("s%08d", i), Keywords: strings.Repeat("k", n)}
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		ends = append(ends, j.size)
		j.mu.Unlock()
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := j.segPath(1)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != ends[len(ends)-1] {
		t.Fatalf("segment is %d bytes, want %d", len(full), ends[len(ends)-1])
	}

	for cut := len(recordlog.Magic); cut <= len(full); cut++ {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, edge := 0, int64(len(recordlog.Magic))
		for _, e := range ends {
			if e <= int64(cut) {
				whole, edge = whole+1, e
			}
		}
		torn := 0
		if edge != int64(cut) {
			torn = 1
		}
		j, err := Open(dir, Options{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(j.Recovered()) != whole || j.TornTails() != torn {
			t.Fatalf("cut=%d: recovered %d records, %d torn tails; want %d, %d",
				cut, len(j.Recovered()), j.TornTails(), whole, torn)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacySegmentDropped: a segment in the journal's pre-recordlog
// format (BNAVWAL1 magic, IEEE CRC frames) has no readable magic, so
// recovery counts it as one torn tail and removes it; the next open is
// clean.
func TestLegacySegmentDropped(t *testing.T) {
	dir := t.TempDir()
	legacy := []byte("BNAVWAL1\x05\x00\x00\x00\x86\xa6\x10\x36hello")
	seg := filepath.Join(dir, "journal-00000001.wal")
	if err := os.WriteFile(seg, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, Options{})
	if len(j.Recovered()) != 0 || j.TornTails() != 1 {
		t.Fatalf("recovered %d records, %d torn tails; want 0, 1", len(j.Recovered()), j.TornTails())
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("legacy segment not removed: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	if j2.TornTails() != 0 {
		t.Fatalf("second open counted %d torn tails, want 0", j2.TornTails())
	}
}

func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 256})
	appendN(t, j, 40)
	snapshot := []Record{
		{Type: TypeCreate, Session: "s00000002", Keywords: "p53", Policy: "poly", At: 5},
		{Type: TypeAction, Session: "s00000002", Action: json.RawMessage(`{"kind":"BACKTRACK"}`), At: 6},
	}
	if err := j.Checkpoint(snapshot); err != nil {
		t.Fatal(err)
	}
	segs, err := j.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("checkpoint left %d segments, want 1", len(segs))
	}
	if j.Recovered() != nil {
		t.Fatal("Recovered not cleared by checkpoint")
	}
	// Post-checkpoint appends land after the snapshot.
	if err := j.Append(rec(99)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	got := j2.Recovered()
	if len(got) != 3 {
		t.Fatalf("recovered %d records after checkpoint, want 3", len(got))
	}
	if got[0].Type != TypeCreate || got[0].Session != "s00000002" {
		t.Fatalf("snapshot create lost: %+v", got[0])
	}
	if got[2].At != rec(99).At {
		t.Fatalf("post-checkpoint append lost: %+v", got[2])
	}
}

func TestIntervalFsyncMarksClean(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncInterval, Interval: 5 * time.Millisecond})
	appendN(t, j, 3)
	deadline := time.Now().Add(2 * time.Second)
	for {
		j.mu.Lock()
		dirty := j.dirty
		j.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(0)); err == nil {
		t.Fatal("append after close succeeded")
	} else if !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v, want errClosed in the chain", err)
	}
	// Close is idempotent.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseFsync(t *testing.T) {
	for _, ok := range []string{"always", "interval", "off"} {
		if _, err := ParseFsync(ok); err != nil {
			t.Errorf("ParseFsync(%q) = %v", ok, err)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Error("ParseFsync accepted garbage")
	}
}

func TestEmptyDirOpens(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	j := mustOpen(t, dir, Options{})
	if got := j.Recovered(); len(got) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(got))
	}
}
