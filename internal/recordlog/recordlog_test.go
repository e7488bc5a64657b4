package recordlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// frame is one record as Scan reports it.
type frame struct {
	off     int64
	payload []byte
}

// writeLog writes payloads to a fresh log and returns its path.
func writeLog(t testing.TB, payloads ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanBytes scans data, collecting copies of the accepted frames.
func scanBytes(data []byte) (frames []frame, end int64, torn bool, err error) {
	end, torn, err = Scan(bytes.NewReader(data), func(p []byte, off int64) error {
		frames = append(frames, frame{off, append([]byte(nil), p...)})
		return nil
	})
	return frames, end, torn, err
}

// mixedPayloads returns records of assorted sizes, each byte distinct
// enough that a misplaced frame shows.
func mixedPayloads() [][]byte {
	var out [][]byte
	for i, n := range []int{1, 7, 300, 2, 1500, 130, 64} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		out = append(out, p)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	// The large record crosses the 64 KiB read and write buffers.
	want := append(mixedPayloads(), bytes.Repeat([]byte{9}, 3*bufSize+5))
	data, err := os.ReadFile(writeLog(t, want...))
	if err != nil {
		t.Fatal(err)
	}
	got, end, torn, err := scanBytes(data)
	if err != nil || torn {
		t.Fatalf("scan: torn=%v err=%v", torn, err)
	}
	if end != int64(len(data)) {
		t.Fatalf("end = %d, want %d", end, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	off := int64(len(Magic))
	for i := range want {
		if got[i].off != off || !bytes.Equal(got[i].payload, want[i]) {
			t.Fatalf("record %d at %d (want %d) differs", i, got[i].off, off)
		}
		off += HeaderSize + int64(len(want[i]))
	}
}

func TestAppendRefusesEmptyRecord(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "x.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	// A refused record does not poison the writer.
	if err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// TestEveryCrashPoint cuts a log at every byte from the end of its magic
// to EOF: each cut must yield exactly the records whose frames end at or
// before it, a torn tail exactly when the cut is inside a frame, and
// never an error.
func TestEveryCrashPoint(t *testing.T) {
	want := mixedPayloads()
	data, err := os.ReadFile(writeLog(t, want...))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	off := int64(len(Magic))
	for _, p := range want {
		off += HeaderSize + int64(len(p))
		ends = append(ends, off)
	}
	for cut := len(Magic); cut <= len(data); cut++ {
		got, end, torn, err := scanBytes(data[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		whole, edge := 0, int64(len(Magic))
		for _, e := range ends {
			if e <= int64(cut) {
				whole, edge = whole+1, e
			}
		}
		if len(got) != whole || end != edge || torn != (edge != int64(cut)) {
			t.Fatalf("cut=%d: %d records, end %d, torn %v; want %d, %d, %v",
				cut, len(got), end, torn, whole, edge, edge != int64(cut))
		}
		for i := range got {
			if !bytes.Equal(got[i].payload, want[i]) {
				t.Fatalf("cut=%d: record %d differs", cut, i)
			}
		}
	}
}

func TestTornMagic(t *testing.T) {
	for cut := 0; cut < len(Magic); cut++ {
		if _, end, torn, err := scanBytes([]byte(Magic)[:cut]); err != nil || !torn || end != 0 {
			t.Fatalf("cut=%d: end %d, torn %v, err %v; want 0, true, nil", cut, end, torn, err)
		}
	}
}

func TestTailClassification(t *testing.T) {
	data, err := os.ReadFile(writeLog(t, []byte("first"), []byte("second record")))
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := int64(len(Magic) + HeaderSize + len("first"))
	flip := func(i int) []byte {
		b := append([]byte(nil), data...)
		b[i] ^= 0xff
		return b
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		records int
		torn    bool
		corrupt bool
	}{
		{"clean", data, 2, false, false},
		{"zero-filled tail", append(append([]byte(nil), data...), make([]byte, 4096)...), 2, true, false},
		{"short zero-filled tail", append(append([]byte(nil), data...), make([]byte, 9)...), 2, true, false},
		{"bad CRC on the final frame", flip(len(data) - 1), 1, true, false},
		{"bad CRC mid-log", flip(len(Magic) + HeaderSize), 0, false, true},
		{"bad magic", flip(0), 0, false, true},
		{"oversized length", append(append([]byte(nil), data...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0), 2, false, true},
		{"zero length, nonzero CRC", append(append([]byte(nil), data...), 0, 0, 0, 0, 1, 0, 0, 0), 2, false, true},
		{"zero header, nonzero tail", append(append([]byte(nil), data...), 0, 0, 0, 0, 0, 0, 0, 0, 0, 7), 2, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, end, torn, err := scanBytes(tc.data)
			if len(got) != tc.records || torn != tc.torn || errors.Is(err, ErrCorrupt) != tc.corrupt {
				t.Fatalf("%d records, torn %v, err %v; want %d, %v, corrupt %v",
					len(got), torn, err, tc.records, tc.torn, tc.corrupt)
			}
			if tc.records == 1 && end != firstEnd {
				t.Fatalf("end %d, want %d", end, firstEnd)
			}
		})
	}
}

func TestScanStopsOnCallbackError(t *testing.T) {
	data, err := os.ReadFile(writeLog(t, []byte("a"), []byte("b"), []byte("c")))
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	end, torn, err := Scan(bytes.NewReader(data), func(p []byte, off int64) error {
		if string(p) == "b" {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || torn || end != int64(len(Magic)+HeaderSize+1) {
		t.Fatalf("end %d, torn %v, err %v", end, torn, err)
	}
}

func TestOpenAppend(t *testing.T) {
	accept := func([]byte, int64) error { return nil }

	t.Run("missing file is created", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "x.log")
		w, torn, err := OpenAppend(path, accept)
		if err != nil || torn {
			t.Fatalf("torn %v, err %v", torn, err)
		}
		appendAndCheck(t, w, path, 1)
	})

	t.Run("torn tail is truncated before appending", func(t *testing.T) {
		path := writeLog(t, []byte("one"), []byte("two"))
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-1); err != nil {
			t.Fatal(err)
		}
		var seen int
		w, torn, err := OpenAppend(path, func([]byte, int64) error { seen++; return nil })
		if err != nil || !torn || seen != 1 {
			t.Fatalf("torn %v, err %v, %d records replayed; want true, nil, 1", torn, err, seen)
		}
		appendAndCheck(t, w, path, 2)
	})

	t.Run("torn magic is rewritten", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "x.log")
		if err := os.WriteFile(path, []byte(Magic[:2]), 0o644); err != nil {
			t.Fatal(err)
		}
		w, torn, err := OpenAppend(path, accept)
		if err != nil || !torn {
			t.Fatalf("torn %v, err %v", torn, err)
		}
		appendAndCheck(t, w, path, 1)
	})

	t.Run("corrupt log is left alone", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "x.log")
		junk := []byte("XXXXjunk")
		if err := os.WriteFile(path, junk, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenAppend(path, accept); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, junk) {
			t.Fatalf("corrupt log modified: %q", got)
		}
	})
}

// appendAndCheck appends one record through w, closes it, and checks the
// log now holds want clean records.
func appendAndCheck(t *testing.T, w *Writer, path string, want int) {
	t.Helper()
	if err := w.Append([]byte("appended")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, _, torn, err := scanBytes(data)
	if err != nil || torn || len(got) != want || string(got[want-1].payload) != "appended" {
		t.Fatalf("after append: %d records, torn %v, err %v; want %d clean", len(got), torn, err, want)
	}
}
