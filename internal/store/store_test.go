package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.PutUvarint(0)
	e.PutUvarint(1 << 60)
	e.PutVarint(-42)
	e.PutVarint(1 << 50)
	e.PutString("hello, 世界")
	e.PutBytes([]byte{0, 1, 2, 255})
	e.PutFloat64(3.14159)

	d := NewDecoder(e.Bytes())
	if v, err := d.Uvarint(); err != nil || v != 0 {
		t.Fatalf("uvarint: %v %v", v, err)
	}
	if v, err := d.Uvarint(); err != nil || v != 1<<60 {
		t.Fatalf("uvarint: %v %v", v, err)
	}
	if v, err := d.Varint(); err != nil || v != -42 {
		t.Fatalf("varint: %v %v", v, err)
	}
	if v, err := d.Varint(); err != nil || v != 1<<50 {
		t.Fatalf("varint: %v %v", v, err)
	}
	if v, err := d.String(); err != nil || v != "hello, 世界" {
		t.Fatalf("string: %q %v", v, err)
	}
	if v, err := d.Bytes(); err != nil || !bytes.Equal(v, []byte{0, 1, 2, 255}) {
		t.Fatalf("bytes: %v %v", v, err)
	}
	if v, err := d.Float64(); err != nil || v != 3.14159 {
		t.Fatalf("float: %v %v", v, err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	err := quick.Check(func(u uint64, i int64, s string, b []byte, f float64) bool {
		var e Encoder
		e.PutUvarint(u)
		e.PutVarint(i)
		e.PutString(s)
		e.PutBytes(b)
		e.PutFloat64(f)
		d := NewDecoder(e.Bytes())
		gu, err1 := d.Uvarint()
		gi, err2 := d.Varint()
		gs, err3 := d.String()
		gb, err4 := d.Bytes()
		gf, err5 := d.Float64()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return false
		}
		if d.Finish() != nil {
			return false
		}
		// NaN compares unequal to itself; compare bit patterns via encode.
		sameFloat := gf == f || (f != f && gf != gf)
		return gu == u && gi == i && gs == s && bytes.Equal(gb, b) && sameFloat
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecoderErrorsOnTruncation(t *testing.T) {
	var e Encoder
	e.PutString("abcdef")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		if _, err := d.String(); err == nil {
			t.Fatalf("cut=%d: no error", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

func TestDecoderFinishDetectsTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	if err := d.Finish(); err == nil {
		t.Fatal("Finish ignored trailing bytes")
	}
}

// writeTestTable writes payloads as table "x" of a fresh database
// directory and returns the directory and the table file's path.
func writeTestTable(t *testing.T, payloads ...[]byte) (dir, path string) {
	t.Helper()
	dir = t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("x")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := tw.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "x"+tableSuffix)
}

// readTestTable reads table "x" back through DB.ForEach.
func readTestTable(dir string) ([][]byte, error) {
	db, err := Open(dir)
	if err != nil {
		return nil, err
	}
	var got [][]byte
	err = db.ForEach("x", func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	return got, err
}

func TestLogRoundTrip(t *testing.T) {
	want := [][]byte{[]byte("alpha"), {0}, []byte("gamma with a longer payload")}
	dir, _ := writeTestTable(t, want...)
	got, err := readTestTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestLogTornTailRecovered(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 5; i++ {
		recs = append(recs, []byte("record-payload-0123456789"))
	}
	dir, path := writeTestTable(t, recs...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate at every possible byte boundary inside the last record; the
	// reader must always recover the first four records, never error, and
	// count the torn tail.
	recSize := (len(full) - 4) / 5
	for cut := len(full) - recSize + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		before := tornTables.Value()
		got, err := readTestTable(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(got) != 4 {
			t.Fatalf("cut=%d: recovered %d records, want 4", cut, len(got))
		}
		if n := tornTables.Value() - before; n != 1 {
			t.Fatalf("cut=%d: counted %d torn tails, want 1", cut, n)
		}
	}
}

func TestLogMidFileCorruptionDetected(t *testing.T) {
	dir, path := writeTestTable(t,
		bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32), bytes.Repeat([]byte{3}, 32))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record (after magic + header).
	data[4+8+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTestTable(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestLogBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x"+tableSuffix), []byte("XXXXjunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTestTable(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDBTables(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha"} {
		tw, err := w.CreateTable(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Append([]byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.CreateTable("alpha"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := w.CreateTable("Bad Name"); err == nil {
		t.Fatal("invalid table name accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := db.Tables()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Tables = %v", got)
	}
	if !db.HasTable("alpha") || db.HasTable("nope") {
		t.Fatal("HasTable wrong")
	}
	var payloads []string
	err = db.ForEach("alpha", func(p []byte) error {
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil || len(payloads) != 1 || payloads[0] != "alpha" {
		t.Fatalf("ForEach = %v, %v", payloads, err)
	}
	if err := db.ForEach("nope", func([]byte) error { return nil }); err == nil {
		t.Fatal("ForEach on missing table succeeded")
	}
}

func TestNewWriterCleansStaleTables(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "old.tbl")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale table not removed")
	}
}
