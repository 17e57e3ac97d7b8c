package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"unidrive/internal/erasure"
	"unidrive/internal/obs"
)

// executeTraced runs half the timed phase untraced and half traced,
// each half on a pair of its own set up with the boundary recorders in
// place (switched off for the untraced half), and reports the per-layer
// metrics of the traced half plus the tracing overhead. Two pairs
// rather than one bound what the reader-cache leak pins at once.
func executeTraced(ctx context.Context, o options, root string, stdout io.Writer) (result, error) {
	wl, gen, err := seedWorkload(o, root)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(o.workload)
	half := time.Duration(o.seconds) * time.Second / 2
	dir := filepath.Join(root, "0")
	b, _, err := setup(ctx, dir, o.seed, wl, gen, tr)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	warm, err := b.warmUp(ctx)
	if err != nil {
		return result{}, err
	}
	plain, err := b.passes(ctx, half, 0)
	if err != nil {
		return result{}, err
	}
	mismatch, verr := b.mismatch, b.verifyAll()

	next := filepath.Join(root, "1")
	if err := reuseSeedFolder(filepath.Join(dir, "writer"), filepath.Join(next, "writer")); err != nil {
		return result{}, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}
	runtime.GC()
	b, _, err = setup(ctx, next, o.seed, wl, gen, tr)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	w, err := b.warmUp(ctx)
	if err != nil {
		return result{}, err
	}
	warm = append(warm, w...)

	before := b.snapshot()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	tr.on.Store(true)
	traced, err := b.passes(ctx, half, len(plain))
	tr.on.Store(false)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	after := b.snapshot()
	if mismatch == nil {
		mismatch = b.mismatch
	}
	if err := b.verifyAll(); err != nil && verr == nil {
		verr = err
	}

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	live, err := b.gen.liveBytes(b.p.writer.dir)
	if err != nil {
		return result{}, err
	}
	spans := tr.snapshot()
	assignParents(spans)
	l := layerInput{
		spans:       spans,
		samples:     traced,
		before:      before,
		after:       after,
		cpu:         cpuByGroup(p),
		storedBytes: b.p.storedBytes(),
		liveBytes:   live,
		overheadPct: 100 * (medianPass(traced) - medianPass(plain)) / medianPass(plain),
	}
	res := result{Correct: mismatch == nil && verr == nil, Metrics: layerMetrics(l)}
	res.tally(warm)
	res.tally(plain)
	res.tally(traced)

	host, err := hostFacts()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "perfbench: host %s\n", host)
	fmt.Fprintf(stdout, "perfbench: %d untraced + %d traced passes, %d failed; tracing overhead %.1f%% on the median pass\n",
		len(plain), len(traced), res.Failed, l.overheadPct)
	printCPUShares(stdout, l.cpu)
	printMetrics(stdout, res.Metrics)
	if err := writeTrace(o, spans, prof.Bytes(), res.Metrics, l.cpu, host, stdout); err != nil {
		return result{}, err
	}
	report(stdout, mismatch, verr)
	return res, nil
}

// medianPass is the median of commit+apply wall time, in ms.
func medianPass(samples []sample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = ms(s.commit + s.apply)
	}
	return quantile(xs, 0.5)
}

// runSnapshot is the state the traced half is measured between.
type runSnapshot struct {
	writer, reader obs.Snapshot
	mem            runtime.MemStats
}

func (b *bench) snapshot() runSnapshot {
	s := runSnapshot{writer: b.p.writer.reg.Snapshot(), reader: b.p.reader.reg.Snapshot()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// assignParents gives every span without a parent the pass whose time
// window holds its start: folder calls carry no context, and passes
// never overlap.
func assignParents(spans []span) {
	var passes []span
	for _, s := range spans {
		if s.Kind == kindPass {
			passes = append(passes, s)
		}
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].Start < passes[j].Start })
	for i := range spans {
		s := &spans[i]
		if s.Kind == kindPass || s.Parent != 0 {
			continue
		}
		j := sort.Search(len(passes), func(j int) bool { return passes[j].End >= s.Start })
		if j < len(passes) && passes[j].Start <= s.Start {
			s.Parent = passes[j].ID
		}
	}
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	AVX2       string `json:"avx2_kernels"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s, AVX2 GF(2^8) kernels: %s",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.AVX2)
}

// hostFacts records the machine, and whether the gf256 AVX2 kernels
// are active — judged by profiling erasure coding, since the switch is
// internal to the package.
func hostFacts() (hostInfo, error) {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
	coder, err := erasure.NewCoder(3, 5)
	if err != nil {
		return h, err
	}
	segment := make([]byte, 4<<20)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return h, err
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		coder.Encode(segment)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return h, err
	}
	avx := sawFunc(p, "unidrive/internal/gf256.mulAddVecAVX2") + sawFunc(p, "unidrive/internal/gf256.mulVecAVX2")
	total := sawFunc(p, "unidrive/internal/erasure.(*Coder).Encode")
	switch {
	case avx > 0:
		h.AVX2 = fmt.Sprintf("active (%.0f of %.0f ms of erasure encoding in AVX2 kernels)", avx, total)
	case total > 0:
		h.AVX2 = fmt.Sprintf("inactive (%.0f ms of erasure encoding, none in AVX2 kernels)", total)
	default:
		h.AVX2 = "unknown (the probe recorded no samples)"
	}
	return h, nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printCPUShares prints each bucket's share of the sampled CPU time,
// and each client module's share of the client's.
func printCPUShares(w io.Writer, cpu map[string]float64) {
	var total float64
	names := make([]string, 0, len(cpu))
	for n, v := range cpu {
		total += v
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return cpu[names[i]] > cpu[names[j]] })
	client := clientCPU(cpu)
	fmt.Fprintf(w, "perfbench: CPU profile of the traced half, %.0f ms sampled:", total)
	for _, n := range names {
		fmt.Fprintf(w, " %s %.1f%%", n, 100*cpu[n]/total)
	}
	fmt.Fprintf(w, "\nperfbench: client modules, %.0f ms:", client)
	for _, n := range names {
		if isClientGroup(n) {
			fmt.Fprintf(w, " %s %.1f%%", n, 100*cpu[n]/client)
		}
	}
	fmt.Fprintln(w)
}

// writeTrace writes the spans (JSON lines), the CPU profile of the
// traced half (for go tool pprof) and the per-layer report.
func writeTrace(o options, spans []span, prof []byte, m map[string]metric, cpu map[string]float64, host hostInfo, stdout io.Writer) error {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	report, err := json.MarshalIndent(map[string]any{
		"workload": o.workload,
		"why":      workloadWhy[o.workload],
		"seed":     o.seed,
		"seconds":  o.seconds,
		"host":     host,
		"cpu_ms":   cpu,
		"metrics":  m,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", report, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench: wrote %d spans to %s.spans.jsonl, the profile to %s.cpu.pprof and the report to %s.layers.json\n",
		len(spans), base, base, base)
	return nil
}
