// Command perfbench is UniDrive's end-to-end benchmark. It drives two
// devices, a writer and a reader, through the public core.Client API
// (SyncOnce, SyncDirty, SyncRemote) over five in-memory clouds, each
// device with a real localfs.Dir folder and configured the way
// cmd/unidrive configures it: obs registry, breaker and capacity
// trackers, default K/Kr/Ks, θ and connections per cloud, DES metadata,
// and a state checkpoint after every applying pass. The decorator stack
// and the journal's durable writes are on the measured path. Every pass
// is verified byte for byte (SHA-256), and so are both whole folders at
// the end.
//
// Load shape: a closed loop from one process with one client call in
// flight at a time — the writer commits a pass's edits (SyncDirty with
// exactly the paths the generator wrote), then the reader applies them
// (SyncRemote). The watcher stays off. Inputs come from --seed and are
// written before each timed call.
//
// Workloads (see workloadWhy):
//
//   - bulk: 4 incompressible 16 MiB files overwritten per pass. The data
//     plane: chunker SHA-1 and CDC, RS coding, CRC, copies, transfer.
//   - edits: set-up commits 5 000 files of 1–16 KiB in 100 directories;
//     each pass rewrites 100 of them. The control plane: metadata codec
//     and cipher, the O(folder) state checkpoint, the quorum lock, the
//     journal's fsyncs, per-request overhead.
//
// Known defect, visible in client_heap_MiB: before applying a changed
// file of unchanged size, the reader re-reads and re-chunks its old
// content (the skip check), and core's chunkFile caches every segment
// already in the image by aliasing the whole file buffer. Segment GC
// drops only the IDs still committed, so the old segments' entries,
// and the buffers behind them, are never released: about 64 MiB stays
// pinned per pass on bulk. Until it is fixed, client_heap_MiB there
// grows with the number of passes a pair completes, so a speed-up on
// bulk also raises it.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench --workload bulk|edits --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets up setupReps times and splits the timed phase
// evenly over the set-ups, each pair running its share after
// warmUpPasses untimed passes, and prints the end-to-end metrics of all
// timed passes together (see endToEndMetrics).
// With --trace 1 it runs the timed phase in two halves, each on a pair
// of its own, the first untraced and the second traced, and prints the
// per-layer metrics of the traced half (see layers.go) plus the tracing
// overhead; spans, the CPU profile and a report with host
// facts go to --trace-out. The last line of standard output is always
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// setupReps is how many times an untraced run sets up from
	// scratch; setup_s is their median.
	setupReps = 3
	// warmUpPasses run untimed between each set-up and its share of
	// the timed phase.
	warmUpPasses = 2
	// procs is the benchmark's GOMAXPROCS. Both workloads keep about
	// one core busy on average, and on a shared host with a few vCPUs a
	// second runnable thread mostly measures when the hypervisor runs
	// the other vCPU: goroutine hand-offs across vCPUs wait out its
	// steal time. On a 2-vCPU host, eight alternating pairs of edits
	// runs moved the commit and apply medians by a third or more with
	// GOMAXPROCS at its default and by under a tenth with one P; steal
	// on the one vCPU still slows every pass. A change that spreads work
	// over more cores shows no gain here.
	procs = 1
	// runBudget bounds a whole run, so a wedged client cannot keep the
	// process alive past the benchmark's time limit.
	runBudget = 170 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string
	traceOut string
}

// endToEndMetrics are the metrics an untraced run reports, on every
// workload; BENCHMARK.json lists the same names. The reader's apply is
// the download side. Throughputs divide the user bytes of all passes
// by the summed wall time of the writer's commits (upload) or the
// reader's applies (download). A _tail is the highest percentile with
// at least ten passes above it (the median below 21 passes).
// client_heap_MiB is the median over the set-ups of each pair's heap
// after its share of the passes, and setup_s the median set-up time.
var endToEndMetrics = []metricName{
	{"upload_MBps", "MB/s"},
	{"download_MBps", "MB/s"},
	{"commit_ms_p50", "ms"},
	{"commit_ms_tail", "ms"},
	{"apply_ms_p50", "ms"},
	{"apply_ms_tail", "ms"},
	{"client_heap_MiB", "MiB"},
	{"ok_pass_ratio", "ratio"},
	{"setup_s", "s"},
}

type metricName struct{ name, unit string }

// metrics pairs each named metric with its value.
func metrics(names []metricName, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n.name] = metric{vals[n.name], n.unit}
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts the passes attempted and failed.
func (r *result) tally(samples []sample) {
	for _, s := range samples {
		r.Attempted++
		if s.failed {
			r.Failed++
		}
	}
}

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, err := execute(ctx, opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: bulk or edits")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for the devices' folders")
	fs.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "trace"), "directory for spans and per-layer reports")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloadWhy[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// bench is one set-up pair with its input generator.
type bench struct {
	p   *pair
	wl  workload
	gen *generator
	tr  *tracer
	// mismatch is the first pass whose reader bytes differed from the
	// writer's.
	mismatch error
}

// sample is one timed pass: the writer's commit, then the reader's
// apply.
type sample struct {
	commit, apply time.Duration
	userBytes     int64
	failed        bool
}

func execute(ctx context.Context, o options, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	root, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)

	fmt.Fprintf(stdout, "perfbench: workload %s (%s), seed %d, %ds timed, trace %v\n",
		o.workload, workloadWhy[o.workload], o.seed, o.seconds, o.trace)
	if o.trace {
		return executeTraced(ctx, o, root, stdout)
	}

	wl, gen, err := seedWorkload(o, root)
	if err != nil {
		return result{}, err
	}
	// The timed phase is split evenly over the set-ups: each fresh pair
	// is warmed up, runs its share of the timed passes, has its heap
	// measured and both its folders compared, and is dropped before the
	// next set-up. Spreading the timed passes over the whole run samples
	// more of the host's speed phases than one block at the end would,
	// and bounds what the reader-cache leak can pin at once.
	var setups, heaps []float64
	var warm, samples []sample
	var mismatch, verr error
	share := time.Duration(o.seconds) * time.Second / setupReps
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(root, fmt.Sprint(i))
		if i > 0 {
			// The previous pair's writer folder, minus the client's
			// state, seeds the next set-up: the same paths and sizes,
			// holding the content the last pass left.
			prev := filepath.Join(root, fmt.Sprint(i-1))
			if err := reuseSeedFolder(filepath.Join(prev, "writer"), filepath.Join(dir, "writer")); err != nil {
				return result{}, err
			}
			if err := os.RemoveAll(prev); err != nil {
				return result{}, err
			}
			runtime.GC()
		}
		b, d, err := setup(ctx, dir, o.seed, wl, gen, nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
		w, err := b.warmUp(ctx)
		if err != nil {
			return result{}, err
		}
		warm = append(warm, w...)
		s, err := b.passes(ctx, share, len(samples))
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s...)
		heaps = append(heaps, b.clientHeap())
		if mismatch == nil {
			mismatch = b.mismatch
		}
		if err := b.verifyAll(); err != nil && verr == nil {
			verr = fmt.Errorf("set-up %d: %w", i, err)
		}
	}

	res := result{Correct: mismatch == nil && verr == nil}
	res.tally(warm)
	res.tally(samples)
	var commits, applies []float64
	var bytes int64
	var commitSum, applySum time.Duration
	for _, s := range samples {
		commits = append(commits, ms(s.commit))
		applies = append(applies, ms(s.apply))
		bytes += s.userBytes
		commitSum += s.commit
		applySum += s.apply
	}
	commitTail, commitLabel := tail(commits)
	applyTail, applyLabel := tail(applies)
	res.Metrics = metrics(endToEndMetrics, map[string]float64{
		"setup_s":         quantile(setups, 0.5),
		"upload_MBps":     float64(bytes) / 1e6 / commitSum.Seconds(),
		"download_MBps":   float64(bytes) / 1e6 / applySum.Seconds(),
		"commit_ms_p50":   quantile(commits, 0.5),
		"commit_ms_tail":  commitTail,
		"apply_ms_p50":    quantile(applies, 0.5),
		"apply_ms_tail":   applyTail,
		"client_heap_MiB": quantile(heaps, 0.5),
		"ok_pass_ratio":   float64(res.Attempted-res.Failed) / float64(max(res.Attempted, 1)),
	})

	fmt.Fprintf(stdout, "perfbench: %d passes (%d warm-up), %d failed, %.1f MB of user bytes timed; set-ups %.2f s; heaps %.1f MiB; peak RSS %.0f MiB\n",
		res.Attempted, len(warm), res.Failed, float64(bytes)/1e6, setups, heaps, peakRSSMiB())
	fmt.Fprintf(stdout, "perfbench: commit_ms_tail is %s of %d passes, apply_ms_tail is %s of %d passes\n",
		commitLabel, len(commits), applyLabel, len(applies))
	fmt.Fprintf(stdout, "perfbench: commit ms by pass %.0f\n", commits)
	fmt.Fprintf(stdout, "perfbench: apply ms by pass %.0f\n", applies)
	printMetrics(stdout, res.Metrics)
	report(stdout, mismatch, verr)
	return res, nil
}

// seedWorkload creates the workload's generator and writes its seed
// folder as the writer folder of the first set-up, root/0/writer.
func seedWorkload(o options, root string) (workload, *generator, error) {
	wl, gen, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, nil, err
	}
	if err := wl.seedFolder(filepath.Join(root, "0", "writer")); err != nil {
		return nil, nil, fmt.Errorf("seed folder: %w", err)
	}
	return wl, gen, nil
}

// setup builds both clients over fresh clouds and commits and
// converges the seed folder already in dir/writer — the timed part —
// then checks the reader's copy.
func setup(ctx context.Context, dir string, seed uint64, wl workload, gen *generator, tr *tracer) (*bench, time.Duration, error) {
	start := time.Now()
	p, err := newPair(ctx, dir, seed, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := p.converge(ctx); err != nil {
		return nil, 0, err
	}
	d := time.Since(start)
	if err := gen.verifyFolder(p.reader.dir); err != nil {
		return nil, 0, fmt.Errorf("after set-up: %w", err)
	}
	return &bench{p: p, wl: wl, gen: gen, tr: tr}, d, nil
}

// reuseSeedFolder moves a committed writer folder to dst and deletes
// the client state inside it, so the next client starts cold on the
// same files.
func reuseSeedFolder(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err := os.Rename(src, dst); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(dst, ".unidrive"))
}

// passes runs timed passes, numbered from first, until d has elapsed.
func (b *bench) passes(ctx context.Context, d time.Duration, first int) ([]sample, error) {
	var samples []sample
	deadline := time.Now().Add(d)
	for n := first; time.Now().Before(deadline); n++ {
		s, err := b.pass(ctx, n)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// warmUp runs warmUpPasses untimed passes, then collects the garbage
// of the set-ups and returns it to the operating system, so that every
// pair's share of the timed phase starts from the same state: caches filled, the
// heap holding only the live pair, and no set-up memory left for the
// scavenger to release during timed passes. The passes are verified
// and count as attempted like timed ones.
func (b *bench) warmUp(ctx context.Context) ([]sample, error) {
	var samples []sample
	for n := 0; n < warmUpPasses; n++ {
		s, err := b.pass(ctx, -warmUpPasses+n)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	debug.FreeOSMemory()
	return samples, nil
}

// pass generates and runs pass n: the writer's commit, then the
// reader's apply. It fails if a client call errors, a guard counter
// moves, or the reader's bytes differ from the writer's; the first
// byte mismatch is kept in b.mismatch. A generator error aborts the
// run.
func (b *bench) pass(ctx context.Context, n int) (sample, error) {
	w, r := b.p.writer, b.p.reader
	if err := ctx.Err(); err != nil {
		return sample{}, err
	}
	e, err := b.wl.nextPass(w.dir)
	if err != nil {
		return sample{}, fmt.Errorf("generating pass %d: %w", n, err)
	}
	guards := b.p.guardTotal()
	s := sample{userBytes: e.userBytes}
	start := time.Now()
	cerr := b.tr.pass(ctx, "SyncDirty", w.name, n, func(ctx context.Context) error {
		_, err := w.client.SyncDirty(ctx, e.paths)
		return err
	})
	s.commit = time.Since(start)
	start = time.Now()
	aerr := b.tr.pass(ctx, "SyncRemote", r.name, n, func(ctx context.Context) error {
		_, err := r.client.SyncRemote(ctx)
		return err
	})
	s.apply = time.Since(start)
	switch {
	case cerr != nil || aerr != nil:
		s.failed = true
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: commit: %v; apply: %v\n", n, cerr, aerr)
	case b.p.guardTotal() != guards:
		s.failed = true
		fmt.Fprintf(os.Stderr, "perfbench: pass %d moved a guard counter\n", n)
	}
	if cerr == nil && aerr == nil {
		if err := b.gen.verifyPaths(r.dir, e.paths); err != nil {
			s.failed = true
			if b.mismatch == nil {
				b.mismatch = fmt.Errorf("pass %d: %w", n, err)
			}
		}
	}
	return s, nil
}

// clientHeap is the live heap after a forced GC, with both clients
// still reachable, minus the bytes the simulated clouds hold.
func (b *bench) clientHeap() float64 {
	// Two cycles: the first moves pooled buffers to the victim cache,
	// the second frees them.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heap := float64(int64(mem.HeapAlloc)-b.p.storedBytes()) / (1 << 20)
	runtime.KeepAlive(b.p)
	return heap
}

// report prints the verification failures, if any: the first pass
// whose reader bytes differed and the final folder comparison.
func report(w io.Writer, mismatch, verr error) {
	if mismatch != nil {
		fmt.Fprintln(w, "perfbench: FAILED verification:", mismatch)
	}
	if verr != nil {
		fmt.Fprintln(w, "perfbench: FAILED final folder comparison:", verr)
	}
}

// verifyAll compares both whole folders with the generator's record.
func (b *bench) verifyAll() error {
	if err := b.gen.verifyFolder(b.p.writer.dir); err != nil {
		return err
	}
	return b.gen.verifyFolder(b.p.reader.dir)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, v, m[n].Unit)
	}
}
