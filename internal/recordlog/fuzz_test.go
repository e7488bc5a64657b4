package recordlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the scanner. It must never panic;
// every error must wrap ErrCorrupt; the accepted records must be a prefix
// of the frames the input's length fields lay out, at their offsets; and
// a clean result must have consumed the whole input. Seeds beyond the
// ones added here live in testdata/fuzz/FuzzScan.
func FuzzScan(f *testing.F) {
	valid, err := os.ReadFile(writeLog(f, []byte("hello"), bytes.Repeat([]byte{7}, 100)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(Magic))
	f.Add([]byte("XXXX"))
	f.Add(valid[:len(valid)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, end, torn, err := scanBytes(data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v does not wrap ErrCorrupt", err)
		}
		if err == nil && !torn && end != int64(len(data)) {
			t.Fatalf("clean scan ended at %d of %d bytes", end, len(data))
		}
		off := int64(len(Magic))
		for i, fr := range got {
			length := int64(binary.LittleEndian.Uint32(data[off:]))
			payload := data[off+HeaderSize : off+HeaderSize+length]
			if fr.off != off || !bytes.Equal(fr.payload, payload) {
				t.Fatalf("record %d at %d is not the input's frame at %d", i, fr.off, off)
			}
			off += HeaderSize + length
		}
		if end != off && !(len(got) == 0 && end == 0) {
			t.Fatalf("end %d, want %d after %d records", end, off, len(got))
		}
	})
}
