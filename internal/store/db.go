package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"bionav/internal/recordlog"
)

// A DB is a directory of table files (<name>.tbl), each a record log
// (internal/recordlog). Writing and reading are separate phases, matching
// BioNav's off-line preprocessing / on-line lookup split: a Writer creates
// tables once; Open then serves them.

const tableSuffix = ".tbl"

var tableNameRE = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)

// Writer creates a database directory and its tables.
type Writer struct {
	dir    string
	tables map[string]*recordlog.Writer
}

// NewWriter prepares dir (creating it if needed) for table creation.
// Existing table files in dir are removed so a re-run starts clean.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir: %w", err)
	}
	old, err := filepath.Glob(filepath.Join(dir, "*"+tableSuffix))
	if err != nil {
		return nil, fmt.Errorf("store: glob: %w", err)
	}
	for _, p := range old {
		if err := os.Remove(p); err != nil {
			return nil, fmt.Errorf("store: clean %s: %w", p, err)
		}
	}
	return &Writer{dir: dir, tables: make(map[string]*recordlog.Writer)}, nil
}

// CreateTable opens a new table for appending. Table names are restricted
// to lowercase identifiers to keep paths portable.
func (w *Writer) CreateTable(name string) (*recordlog.Writer, error) {
	if !tableNameRE.MatchString(name) {
		return nil, fmt.Errorf("store: invalid table name %q", name)
	}
	if _, dup := w.tables[name]; dup {
		return nil, fmt.Errorf("store: table %q already created", name)
	}
	lw, err := recordlog.Create(filepath.Join(w.dir, name+tableSuffix))
	if err != nil {
		return nil, err
	}
	w.tables[name] = lw
	return lw, nil
}

// Close fsyncs and closes every table, reporting the first error.
func (w *Writer) Close() error {
	names := make([]string, 0, len(w.tables))
	for n := range w.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var first error
	for _, n := range names {
		err := w.tables[n].Sync()
		if cerr := w.tables[n].Close(); err == nil {
			err = cerr
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DB is a read-only view of a database directory.
type DB struct {
	dir    string
	tables []string
}

// Open lists the tables present in dir. Record contents are streamed on
// demand by ForEach, not loaded eagerly.
func Open(dir string) (*DB, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open db: %w", err)
	}
	db := &DB{dir: dir}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), tableSuffix) {
			continue
		}
		db.tables = append(db.tables, strings.TrimSuffix(e.Name(), tableSuffix))
	}
	sort.Strings(db.tables)
	return db, nil
}

// Tables returns the table names in sorted order.
func (db *DB) Tables() []string { return append([]string(nil), db.tables...) }

// HasTable reports whether the named table exists.
func (db *DB) HasTable(name string) bool {
	i := sort.SearchStrings(db.tables, name)
	return i < len(db.tables) && db.tables[i] == name
}

// ForEach streams every record of a table through fn. The payload slice is
// reused; fn must copy data it retains. A torn final record is dropped
// and counted (crash recovery); earlier damage is an error wrapping
// ErrCorrupt.
func (db *DB) ForEach(table string, fn func(payload []byte) error) error {
	if !db.HasTable(table) {
		return fmt.Errorf("store: no table %q in %s", table, db.dir)
	}
	path := filepath.Join(db.dir, table+tableSuffix)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: open table: %w", err)
	}
	defer f.Close()
	_, torn, err := recordlog.Scan(f, func(payload []byte, _ int64) error { return fn(payload) })
	if torn {
		tornTables.Inc()
	}
	return corruptErr(path, err)
}

// corruptErr applies the store's policy to a record-log scan error: a
// damaged log is store corruption, and the error wraps ErrCorrupt.
func corruptErr(path string, err error) error {
	if errors.Is(err, recordlog.ErrCorrupt) {
		return fmt.Errorf("%w: %s: %w", ErrCorrupt, path, err)
	}
	return err
}
