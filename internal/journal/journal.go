// Package journal is BioNav's session write-ahead log: an append-only,
// per-server record of session lifecycle events (created / action applied /
// closed) durable enough to rebuild every live navigation session after a
// crash, deploy, or kill -9 (docs/RESILIENCE.md §5).
//
// On disk the journal is a directory of rotating segment files
// (journal-NNNNNNNN.wal), each a record log in the internal/recordlog
// format carrying one JSON record per frame. Appends go to the newest
// segment; when it exceeds Options.SegmentBytes a fresh segment is
// opened. Durability is tunable with Options.Fsync: FsyncAlways syncs
// after every append (an acknowledged record survives kill -9),
// FsyncInterval syncs on a background ticker (bounded loss window),
// FsyncOff leaves syncing to the OS.
//
// Open scans the existing segments before accepting appends and keeps the
// longest valid record prefix: the first bad frame — torn or corrupt in
// recordlog's terms, or framed but not a Record — truncates its segment
// at the frame boundary, and any later segments (which would hold
// records appended after the corruption point) are dropped. Scanning never
// fails recovery; it only shortens it. The surviving records are exposed
// via Recovered for the server to rebuild sessions from.
//
// The journal records wall-clock timestamps but never reads the clock
// itself (DET01): callers stamp Record.At, and TTL decisions happen in the
// server. Fault injection: SiteAppend, SiteFsync (internal/faults) make
// every write/sync failure path testable without a hostile filesystem.
package journal

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bionav/internal/faults"
	"bionav/internal/obs"
	"bionav/internal/recordlog"
)

// Fault sites armed by the resilience test suite (docs/RESILIENCE.md);
// the names live in the internal/faults catalog.
const (
	// SiteAppend fires at the head of every Append; an error action makes
	// the append fail before anything reaches the segment.
	SiteAppend = faults.SiteJournalAppend
	// SiteFsync fires before every segment fsync; an error action
	// simulates a failed fsync (full disk, dying device).
	SiteFsync = faults.SiteJournalFsync
)

// Process-wide journal metrics on the default registry
// (docs/OBSERVABILITY.md catalogs them).
var (
	metAppends = obs.Default.Counter("bionav_journal_appends_total",
		"Records appended to the session journal.")
	metAppendErrors = obs.Default.Counter("bionav_journal_append_errors_total",
		"Journal appends that failed (marshal, write, or injected fault).")
	metFsyncs = obs.Default.Counter("bionav_journal_fsyncs_total",
		"Journal segment fsyncs issued (always or interval policy).")
	metFsyncErrors = obs.Default.Counter("bionav_journal_fsync_errors_total",
		"Journal fsyncs that failed (or were failed by an injected fault).")
	metBytes = obs.Default.Counter("bionav_journal_bytes_total",
		"Framed bytes appended to journal segments.")
	metTornTails = recordlog.TornTails.With("journal")
)

// Record types.
const (
	// TypeCreate opens a session: Keywords and Policy are set.
	TypeCreate = "create"
	// TypeAction applies one navigation action: Action holds the
	// wire-format (navigate actionExport) JSON.
	TypeAction = "action"
	// TypeClose retires a session (TTL expiry, LRU eviction); recovery
	// skips closed sessions.
	TypeClose = "close"
)

// Record is one journal entry. The zero fields of types that don't use
// them are omitted from the JSON payload.
type Record struct {
	Type    string `json:"type"`
	Session string `json:"session"`
	// At is a caller-supplied wall-clock stamp (UnixNano); recovery uses
	// the newest stamp per session for its TTL decision.
	At       int64  `json:"at,omitempty"`
	Keywords string `json:"keywords,omitempty"` // TypeCreate
	Policy   string `json:"policy,omitempty"`   // TypeCreate
	// Epoch records the dataset epoch the session was pinned to
	// (TypeCreate). Recovery compares it against the serving epoch and
	// counts a miss when the data moved underneath the journaled session.
	Epoch  uint64          `json:"epoch,omitempty"`
	Action json.RawMessage `json:"action,omitempty"` // TypeAction
}

// FsyncPolicy selects when appended records reach stable storage.
type FsyncPolicy string

// The three policies of the -fsync flag.
const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncOff      FsyncPolicy = "off"
)

// ParseFsync validates a policy name from a flag.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncOff:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("journal: unknown fsync policy %q (want always, interval or off)", s)
}

// Options tunes a journal. The zero value syncs on a 100ms interval and
// rotates segments at 4 MiB.
type Options struct {
	Fsync        FsyncPolicy   // default FsyncInterval
	Interval     time.Duration // interval policy period (default 100ms)
	SegmentBytes int64         // rotation threshold (default 4 MiB)
	Logger       *slog.Logger  // scan/append warnings; nil disables
}

func (o *Options) fill() {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
}

// Journal is an open session write-ahead log. Safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu     sync.Mutex
	w      *recordlog.Writer // guarded by mu; current segment, nil after Close
	seg    int               // guarded by mu; current segment index
	size   int64             // guarded by mu; bytes written to the current segment
	dirty  bool              // guarded by mu; unsynced appends (interval policy)
	closed bool              // guarded by mu

	// Recovery state: filled during the Open scan, read by Recovered and
	// TornTails, reset by Checkpoint — the accessors race with a concurrent
	// checkpoint unless they take the lock too.
	recovered []Record // guarded by mu
	tornTails int      // guarded by mu

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open scans dir's existing segments (recovering the longest valid record
// prefix, truncating at the first bad frame), then opens a fresh segment
// for appends. The recovered records stay available via Recovered until
// the first Checkpoint. dir is created if missing.
func Open(dir string, opts Options) (*Journal, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opts: opts, stop: make(chan struct{})}
	segs, err := j.segments()
	if err != nil {
		return nil, err
	}
	last := 0
	for i, seg := range segs {
		last = seg
		recs, clean := j.recoverSegment(seg)
		j.recovered = append(j.recovered, recs...)
		if !clean && i < len(segs)-1 {
			// Records in later segments were appended after the corruption
			// point; keeping them would recover a history with a hole in
			// the middle. Drop them — prefix semantics.
			for _, later := range segs[i+1:] {
				j.logWarn("dropping post-corruption segment", "segment", j.segPath(later))
				_ = os.Remove(j.segPath(later))
			}
			break
		}
	}
	if err := j.openSegment(last + 1); err != nil {
		return nil, err
	}
	if opts.Fsync == FsyncInterval {
		j.wg.Add(1)
		go j.syncLoop()
	}
	return j, nil
}

// Recovered returns the records scanned at Open, in append order. The
// slice is shared: callers must not mutate it.
func (j *Journal) Recovered() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// TornTails reports how many segment truncations the Open scan performed
// (0 on a clean journal, reset by Checkpoint).
func (j *Journal) TornTails() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tornTails
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Append writes one record and, under FsyncAlways, syncs it to stable
// storage before returning — a nil error then means the record survives
// kill -9. A failed append is dropped (counted), not retried. Injected
// faults leave the journal usable; a real write or fsync failure poisons
// the current segment, so later appends fail until a Checkpoint or a
// restart opens a fresh one — after a failed fsync the kernel may have
// dropped the data, and later records must not land behind a hole.
func (j *Journal) Append(rec Record) error {
	if err := faults.Inject(SiteAppend); err != nil {
		metAppendErrors.Inc()
		return fmt.Errorf("journal: append: %w", err)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		metAppendErrors.Inc()
		return fmt.Errorf("journal: append: marshal: %w", err)
	}
	frame := int64(recordlog.HeaderSize + len(payload))

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		metAppendErrors.Inc()
		return fmt.Errorf("journal: append: %w", errClosed)
	}
	if j.size+frame > j.opts.SegmentBytes && j.size > int64(len(recordlog.Magic)) {
		if err := j.openSegmentLocked(j.seg + 1); err != nil {
			metAppendErrors.Inc()
			return err
		}
	}
	// One write per record: a process crash loses at most the record in
	// flight, whatever the fsync policy.
	if err := j.writeLocked(payload); err != nil {
		metAppendErrors.Inc()
		return fmt.Errorf("journal: append: %w", err)
	}
	j.dirty = true
	metAppends.Inc()
	metBytes.Add(uint64(frame))
	if j.opts.Fsync == FsyncAlways {
		if err := j.syncLocked(); err != nil {
			return fmt.Errorf("journal: append: %w", err)
		}
	}
	return nil
}

var errClosed = fmt.Errorf("journal closed")

// Checkpoint compacts the journal: snapshot is written to a brand-new
// segment, synced, and every older segment — including everything scanned
// at Open — is removed. The snapshot should be the create+action records
// of the sessions still alive; closed and expired history is how a journal
// stops growing. After a checkpoint Recovered returns nil.
func (j *Journal) Checkpoint(snapshot []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: checkpoint: %w", errClosed)
	}
	old, err := j.segments()
	if err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	if err := j.openSegmentLocked(j.seg + 1); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	for _, rec := range snapshot {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: checkpoint: marshal: %w", err)
		}
		if err := j.writeLocked(payload); err != nil {
			return fmt.Errorf("journal: checkpoint: %w", err)
		}
	}
	// A checkpoint that isn't durable is a data-loss amplifier: the old
	// segments are about to be deleted, so the new one must be on disk
	// first, whatever the append-path policy.
	if err := j.syncLocked(); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	for _, seg := range old {
		if seg == j.seg {
			continue
		}
		if err := os.Remove(j.segPath(seg)); err != nil {
			j.logWarn("checkpoint: removing old segment", "segment", j.segPath(seg), "error", err)
		}
	}
	j.recovered = nil
	j.tornTails = 0
	return nil
}

// Close syncs outstanding appends (unless FsyncOff) and closes the current
// segment. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	close(j.stop)
	var err error
	if j.opts.Fsync != FsyncOff && j.dirty {
		err = j.syncLocked()
	}
	if cerr := j.w.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("journal: close: %w", cerr)
	}
	j.w = nil
	j.mu.Unlock()
	j.wg.Wait()
	return err
}

// writeLocked appends one frame to the current segment and writes it
// through to the file; caller holds j.mu.
func (j *Journal) writeLocked(payload []byte) error {
	if err := j.w.Append(payload); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.size += int64(recordlog.HeaderSize + len(payload))
	return nil
}

// syncLocked fsyncs the current segment; caller holds j.mu.
func (j *Journal) syncLocked() error {
	if err := faults.Inject(SiteFsync); err != nil {
		metFsyncErrors.Inc()
		return fmt.Errorf("fsync %s: %w", j.segPath(j.seg), err)
	}
	if err := j.w.Sync(); err != nil {
		metFsyncErrors.Inc()
		return err
	}
	metFsyncs.Inc()
	j.dirty = false
	return nil
}

// syncLoop is the FsyncInterval policy's background syncer.
func (j *Journal) syncLoop() {
	defer j.wg.Done()
	t := time.NewTicker(j.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.closed && j.dirty {
				if err := j.syncLocked(); err != nil {
					j.logWarn("interval fsync failed", "error", err)
				}
			}
			j.mu.Unlock()
		}
	}
}

// openSegment / openSegmentLocked create segment seg and make it current.
func (j *Journal) openSegment(seg int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.openSegmentLocked(seg)
}

func (j *Journal) openSegmentLocked(seg int) error {
	w, err := recordlog.Create(j.segPath(seg))
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	if j.w != nil {
		// The retiring segment is done receiving appends; make it durable
		// before moving on so rotation never widens the loss window.
		if j.opts.Fsync != FsyncOff {
			if err := j.syncLocked(); err != nil {
				j.logWarn("rotating segment fsync failed", "error", err)
			}
		}
		_ = j.w.Close()
	}
	j.w = w
	j.seg = seg
	j.size = int64(len(recordlog.Magic))
	j.dirty = j.opts.Fsync != FsyncOff // magic itself is unsynced
	return nil
}

func (j *Journal) segPath(seg int) string {
	return filepath.Join(j.dir, fmt.Sprintf("journal-%08d.wal", seg))
}

// segments lists existing segment indices, ascending.
func (j *Journal) segments() ([]int, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", j.dir, err)
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".wal"))
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// recoverSegment reads one segment's records, stopping — and truncating —
// at the first bad frame. clean reports whether the whole segment parsed.
func (j *Journal) recoverSegment(seg int) (recs []Record, clean bool) {
	path := j.segPath(seg)
	f, err := os.Open(path)
	if err != nil {
		j.logWarn("recovery: cannot open segment", "segment", path, "error", err)
		return nil, false
	}
	defer f.Close()
	end, torn, err := recordlog.Scan(f, func(payload []byte, _ int64) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err // framed correctly but not a record: same rule
		}
		recs = append(recs, rec)
		return nil
	})
	if err == nil && !torn {
		return recs, true
	}
	j.truncate(path, end, err)
	return recs, false
}

// truncate cuts a scanned segment at the last good frame boundary,
// discarding the bad tail so the next scan is clean; a segment without
// even a valid magic (torn at creation, or a pre-recordlog BNAVWAL1
// segment) is removed. cause is the scan error, nil for a torn tail.
func (j *Journal) truncate(path string, offset int64, cause error) {
	j.mu.Lock()
	j.tornTails++
	j.mu.Unlock()
	metTornTails.Inc()
	j.logWarn("recovery: truncating torn tail", "segment", path, "offset", offset, "cause", cause)
	var err error
	if offset == 0 {
		err = os.Remove(path)
	} else {
		err = os.Truncate(path, offset)
	}
	if err != nil {
		j.logWarn("recovery: truncate failed", "segment", path, "error", err)
	}
}

func (j *Journal) logWarn(msg string, args ...any) {
	if j.opts.Logger != nil {
		j.opts.Logger.Warn("journal: "+msg, args...)
	}
}
