// Command navbench is the repository's benchmark. It generates the seeded
// full-scale Table I database, starts the real bionav-server binary on
// it, drives it over HTTP from one open-loop driver process, checks the
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. See navbench/README.md.
//
//	bash navbench/run.sh --workload topdown --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bionav/internal/workload"
	"bionav/navbench/harness"
)

// wallClock is the driver's real clock; the harness library never reads
// the wall clock itself.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) After(t time.Time) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(time.Until(t), func() { close(ch) })
	return ch
}

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // bionav-server binary
	out      string // working and result directory
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "navbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("navbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: topdown, cold-query or ingest-journal")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the arrivals, users, cold-query draws and ingest batches")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the fixed-rate phase")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.bin, "server", ".bench_build/bin/bionav-server", "bionav-server binary")
	fs.StringVar(&o.out, "out", ".bench_build/out", "directory for databases, logs, spans and result files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace == 1
	sp, err := specByName(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if _, err := os.Stat(o.bin); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	// One driver process, at most one CPU-bound goroutine per core and
	// one connection per core.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	// A run that cannot finish in time fails rather than hangs: every
	// request and check below derives from this deadline.
	limit := time.Duration(o.seconds)*time.Second + 2*time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	res, err := bench(ctx, o, sp, nproc)
	if err != nil {
		return err
	}
	if err := res.write(o); err != nil {
		return err
	}
	res.print(stdout)
	return nil
}

// bench runs one workload and returns its result.
func bench(ctx context.Context, o options, sp spec, nproc int) (*result, error) {
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", sp.name, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The database is the full-scale Table I one at its default seed on
	// every run; -seed drives everything the users do. Varying the
	// database with -seed moved nav_cost alone by 16% between quartiles
	// over seeds 1–10, wider than any useful regression bound.
	w, err := workload.Generate(workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	db := filepath.Join(dir, "db")
	if err := w.Save(db); err != nil {
		return nil, err
	}
	b := &bencher{o: o, sp: sp, w: w, dir: dir, db: db, conns: nproc, res: newResult(o, sp, nproc)}
	if err := b.run(ctx); err != nil {
		return nil, err
	}
	return b.res, removeExcept(dir, "server.log")
}

// removeExcept deletes everything in dir but keep: the database copies
// and journals of a run are megabytes each, and nothing reads them after.
func removeExcept(dir, keep string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name() == keep {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// bencher holds one run's state.
type bencher struct {
	o     options
	sp    spec
	w     *workload.Workload
	dir   string
	db    string // pristine database; every server gets its own copy
	conns int
	nsrv  int
	res   *result

	untracedP50 [harness.NumOps]float64 // per-op median latency of the fixed-rate phase, ms
}

// serverArgs are the flags the workload names; everything else is the
// server's default.
func (b *bencher) serverArgs(db string) []string {
	args := []string{"-db", db}
	if b.sp.journal {
		args = append(args, "-journal", db+"-journal", "-fsync", "always")
	}
	return args
}

// start copies the pristine database and starts a server on the copy.
func (b *bencher) start() (*server, error) {
	b.nsrv++
	db := filepath.Join(b.dir, fmt.Sprintf("srv%02d", b.nsrv))
	if err := copyDir(b.db, db); err != nil {
		return nil, err
	}
	s, err := startServer(b.o.bin, b.serverArgs(db), filepath.Join(b.dir, "server.log"), b.conns)
	if err != nil {
		return nil, err
	}
	s.db = db
	return s, nil
}

// warmUpTime is how long the measured server serves the workload's reads
// before timing starts. Without it the first seconds of a run were up to
// twice as slow as the rest: the nav cache and the heap were still
// filling.
const warmUpTime = 4 * time.Second

// warmUp drives srv with reads of the workload at its fixed rate, from
// users seeded apart from the measured ones; nothing it records is kept.
// Writes are left out, so the measured phase's ingests start the epochs.
func (b *bencher) warmUp(ctx context.Context, srv *server) {
	in := makeInputs(b.sp, b.w, ^b.o.seed, b.sp.rate, warmUpTime)
	harness.Run(ctx, harness.LoadConfig{
		Clock: wallClock{}, Backend: srv.api, Conns: b.conns,
		Start: time.Now(), Users: in.users(), Arrivals: in.arrivals,
		End: warmUpTime, Grace: grace,
	})
}

// setupRuns is how many times the server is started to time its set-up;
// the median is reported.
const setupRuns = 5

func (b *bencher) run(ctx context.Context) error {
	b.res.Host.ServerFlags = strings.Join(b.serverArgs("DB"), " ")
	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		s, err := b.start()
		if err != nil {
			return err
		}
		setups = append(setups, s.setup.Seconds())
		if i == 0 {
			// The oracle runs on a server of its own, so its sessions and
			// cache entries stay out of the measured phase.
			b.checkNavCost(ctx, s, b.w.Dataset.Snapshot())
		}
		if i < setupRuns-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	b.res.set("setup_s", harness.Quantile(setups, 0.5), "s", len(setups))

	b.warmUp(ctx, srv)
	d := time.Duration(b.o.seconds) * time.Second
	in := makeInputs(b.sp, b.w, b.o.seed, b.sp.rate, d)
	err := b.fixedRate(ctx, srv, in, d)
	srv.stop()
	if err != nil || !b.o.trace {
		return err
	}
	return b.traced(ctx, in)
}
