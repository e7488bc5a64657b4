// Package recordlog owns BioNav's one on-disk record format. The store's
// table files, its ingest log and the session journal's segments all use
// it:
//
//	magic "BNT1" (4 bytes)
//	repeated frames: [u32 LE payload length][u32 LE CRC-32C of payload][payload]
//
// A payload holds 1 to MaxRecord bytes. A zero-length frame is never
// written, so a zeroed header is never mistaken for a record.
//
// Scan reads a log in one buffered pass and says how it ends:
//
//   - clean: EOF on a frame boundary;
//   - torn, the artifact of a crash mid-append: a partial magic, header or
//     payload, a CRC mismatch on the final frame, or a zero-length header
//     followed only by zero bytes up to EOF (a tail the file system
//     extended with zeroes that were never written);
//   - corrupt: anything else, reported as an error wrapping ErrCorrupt.
//
// What to do about a torn or corrupt log is the caller's policy.
package recordlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"bionav/internal/obs"
)

// Format constants.
const (
	Magic      = "BNT1"
	HeaderSize = 8         // u32 length + u32 CRC-32C
	MaxRecord  = 256 << 20 // bounds the buffer a corrupt length can demand
)

const bufSize = 1 << 16

// ErrCorrupt reports a log that is damaged somewhere other than its tail.
var ErrCorrupt = errors.New("recordlog: corrupt log")

// TornTails counts torn tails found by scans; callers label the log kind
// (journal, table, ingest). docs/OBSERVABILITY.md catalogs it.
var TornTails = obs.Default.CounterVec("bionav_log_torn_tails_total",
	"Torn record-log tails (crash artifacts) found while scanning, by log.", "log")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Scan reads the log in r, calling fn with each valid payload and the file
// offset of its frame. The payload slice is reused between calls; fn must
// copy what it retains. end is the offset just past the last frame fn
// accepted (0 when even the magic is torn or bad): the length to truncate
// to. torn reports a torn tail. An error from fn stops the scan and is
// returned as is, with end at the start of the rejected frame.
func Scan(r io.Reader, fn func(payload []byte, off int64) error) (end int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, bufSize)
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:len(Magic)]); err != nil {
		return 0, isEOF(err), readErr(err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return 0, false, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:len(Magic)])
	}
	end = int64(len(Magic))
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return end, err == io.ErrUnexpectedEOF, readErr(err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 {
			if sum == 0 && zerosToEOF(br) {
				return end, true, nil
			}
			return end, false, fmt.Errorf("%w: zero-length record at offset %d", ErrCorrupt, end)
		}
		if length > MaxRecord {
			return end, false, fmt.Errorf("%w: record at offset %d claims %d bytes", ErrCorrupt, end, length)
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(br, buf); err != nil {
			return end, isEOF(err), readErr(err)
		}
		if got := crc32.Checksum(buf, castagnoli); got != sum {
			if _, err := br.Peek(1); err == io.EOF {
				return end, true, nil
			}
			return end, false, fmt.Errorf("%w: record at offset %d: checksum %08x != %08x", ErrCorrupt, end, got, sum)
		}
		if err := fn(buf, end); err != nil {
			return end, false, err
		}
		end += HeaderSize + int64(length)
	}
}

func isEOF(err error) bool { return err == io.EOF || err == io.ErrUnexpectedEOF }

// readErr passes on a read failure; running out of input is not one.
func readErr(err error) error {
	if isEOF(err) {
		return nil
	}
	return fmt.Errorf("recordlog: read: %w", err)
}

// zerosToEOF reports whether everything left in br is zero bytes.
func zerosToEOF(br *bufio.Reader) bool {
	var chunk [4096]byte
	for {
		n, err := br.Read(chunk[:])
		for _, c := range chunk[:n] {
			if c != 0 {
				return false
			}
		}
		if err != nil {
			return err == io.EOF
		}
	}
}

// Writer appends frames to a log through a buffer. After any error it is
// poisoned: every later call returns that error.
type Writer struct {
	f   *os.File
	bw  *bufio.Writer
	err error
}

// Create creates (truncating) the log at path. The magic is written
// through at once, so a log that exists after a process crash starts
// with it.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("recordlog: create: %w", err)
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, bufSize)}
	w.bw.WriteString(Magic) // a failure sticks in bw and surfaces in Flush
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenAppend scans the log at path through fn, as Scan does, and returns
// a Writer positioned after the last frame fn accepted. A torn tail is
// truncated first, so appends never follow garbage, and the bool reports
// it. A missing log is created. A corrupt log, or an error from fn, fails
// the open and leaves the file as it was.
func OpenAppend(path string, fn func(payload []byte, off int64) error) (*Writer, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		w, err := Create(path)
		return w, false, err
	}
	if err != nil {
		return nil, false, fmt.Errorf("recordlog: open: %w", err)
	}
	end, torn, err := Scan(f, fn)
	if err == nil && end == 0 { // the magic itself is torn: nothing to keep
		f.Close()
		w, err := Create(path)
		return w, true, err
	}
	if err == nil && torn {
		err = f.Truncate(end) // an *os.PathError names the operation
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return &Writer{f: f, bw: bufio.NewWriterSize(f, bufSize)}, torn, nil
}

// Append buffers one frame. Payloads must hold 1 to MaxRecord bytes.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) == 0 || len(payload) > MaxRecord {
		return fmt.Errorf("recordlog: record of %d bytes outside 1..%d", len(payload), MaxRecord)
	}
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	w.bw.Write(hdr[:]) // bufio errors are sticky: the next Write reports this one's
	if _, err := w.bw.Write(payload); err != nil {
		w.err = fmt.Errorf("recordlog: append to %s: %w", w.f.Name(), err)
	}
	return w.err
}

// Flush writes the buffered frames to the file.
func (w *Writer) Flush() error {
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("recordlog: write %s: %w", w.f.Name(), err)
		}
	}
	return w.err
}

// Sync flushes and fsyncs, so every frame appended so far survives a
// machine crash.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("recordlog: fsync %s: %w", w.f.Name(), err)
	}
	return w.err
}

// Close flushes and closes the file. It does not fsync; call Sync first
// when the frames must survive a machine crash. After an earlier error
// Close still releases the file and reports that error.
func (w *Writer) Close() error {
	err := w.Flush()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("recordlog: close %s: %w", w.f.Name(), cerr)
	}
	return err
}
