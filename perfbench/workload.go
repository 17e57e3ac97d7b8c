package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Workload shapes. The sizes are part of the benchmark's definition:
// changing one changes every number it reports.
const (
	bulkFiles    = 4
	bulkFileSize = 16 << 20

	editsFiles    = 5000
	editsDirs     = 100
	editsPerPass  = 100
	editsMinBytes = 1 << 10
	editsMaxBytes = 16 << 10
)

// workloadWhy records why each workload exists and which layers it
// stresses; BENCHMARK.json carries the same text.
var workloadWhy = map[string]string{
	"bulk":  "Data plane: 4 x 16 MiB incompressible overwrites per pass stress chunker SHA-1 and CDC, RS coding, copies, transfer. Known defect: reader cache pins ~64 MiB/pass",
	"edits": "Control plane: 100 of 5000 small files rewritten per pass stress metadata JSON and DES, the state checkpoint, quorum lock, journal fsync and per-request cost",
}

type digest = [sha256.Size]byte

// passEdit is one pass's input: the paths the generator rewrote in
// the writer's folder and the user bytes they now hold.
type passEdit struct {
	paths     []string
	userBytes int64
}

// workload generates a pair's inputs from the seed: the folder
// committed during set-up and the edits of every timed pass. It writes
// into the writer's folder directly, never through the client, and
// tracks the SHA-256 every file must have on both devices.
type workload interface {
	// seedFolder writes the initial files into dir.
	seedFolder(dir string) error
	// nextPass applies the next pass's edits to dir.
	nextPass(dir string) (passEdit, error)
}

// generator is the deterministic source shared by all workloads: a
// PCG stream for choices (paths, sizes, offsets) and ChaCha8 streams,
// keyed from it, for file bytes. Modification times come from a
// counter, so the scanner sees every rewrite whatever the file
// system's timestamp granularity.
type generator struct {
	rng  *rand.Rand
	want map[string]digest
	seq  int64
	buf  []byte // scratch for hashing files back from disk
}

func newGenerator(seed uint64, workload string) *generator {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &generator{
		rng:  rand.New(rand.NewPCG(seed, h.Sum64())),
		want: make(map[string]digest),
		buf:  make([]byte, 1<<20),
	}
}

// fill overwrites p with incompressible bytes drawn from a ChaCha8
// stream keyed by the next four PCG draws.
func (g *generator) fill(p []byte) {
	var key [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(key[8*i:], g.rng.Uint64())
	}
	// ChaCha8.Read never fails.
	_, _ = rand.NewChaCha8(key).Read(p)
}

// genEpoch is the base of the generator's modification times.
var genEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// nextModTime returns a modification time later than any handed out
// before.
func (g *generator) nextModTime() time.Time {
	g.seq++
	return genEpoch.Add(time.Duration(g.seq) * time.Second)
}

// writeFile replaces dir/path with data and records its digest.
func (g *generator) writeFile(dir, path string, data []byte) error {
	p := filepath.Join(dir, filepath.FromSlash(path))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return err
	}
	mt := g.nextModTime()
	if err := os.Chtimes(p, mt, mt); err != nil {
		return err
	}
	g.want[path] = sha256.Sum256(data)
	return nil
}

// hashFile returns the SHA-256 of dir/path, reading through buf so
// verification allocates nothing per file.
func hashFile(dir, path string, buf []byte) (digest, error) {
	var d digest
	f, err := os.Open(filepath.Join(dir, filepath.FromSlash(path)))
	if err != nil {
		return d, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.CopyBuffer(h, f, buf); err != nil {
		return d, err
	}
	copy(d[:], h.Sum(nil))
	return d, nil
}

// verifyPaths checks that dir holds the expected bytes at each path.
func (g *generator) verifyPaths(dir string, paths []string) error {
	for _, p := range paths {
		got, err := hashFile(dir, p, g.buf)
		if err != nil {
			return fmt.Errorf("verify %s: %w", p, err)
		}
		if got != g.want[p] {
			return fmt.Errorf("verify %s: content differs from the writer's", p)
		}
	}
	return nil
}

// verifyFolder checks that dir holds exactly the expected files, byte
// for byte, ignoring the client's own .unidrive state directory.
func (g *generator) verifyFolder(dir string) error {
	var found []string
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == ".unidrive" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		found = append(found, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return fmt.Errorf("verify folder %s: %w", dir, err)
	}
	if len(found) != len(g.want) {
		return fmt.Errorf("verify folder %s: %d files, want %d", dir, len(found), len(g.want))
	}
	for _, p := range found {
		if _, ok := g.want[p]; !ok {
			return fmt.Errorf("verify folder %s: unexpected file %s", dir, p)
		}
	}
	return g.verifyPaths(dir, found)
}

// liveBytes is the total size of the files the folder should hold.
func (g *generator) liveBytes(dir string) (int64, error) {
	var n int64
	for p := range g.want {
		fi, err := os.Stat(filepath.Join(dir, filepath.FromSlash(p)))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

func newWorkload(name string, seed uint64) (workload, *generator, error) {
	g := newGenerator(seed, name)
	switch name {
	case "bulk":
		return &bulk{g: g, buf: make([]byte, bulkFileSize)}, g, nil
	case "edits":
		return &edits{g: g}, g, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want bulk or edits)", name)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadWhy))
	for n := range workloadWhy {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bulk overwrites every file with fresh incompressible content each
// pass. The paths are fixed, so segment GC keeps the clouds bounded.
type bulk struct {
	g   *generator
	buf []byte
}

func bulkPath(i int) string { return fmt.Sprintf("bulk/f%d.bin", i) }

func (w *bulk) seedFolder(dir string) error {
	_, err := w.nextPass(dir)
	return err
}

func (w *bulk) nextPass(dir string) (passEdit, error) {
	var e passEdit
	for i := 0; i < bulkFiles; i++ {
		w.g.fill(w.buf)
		if err := w.g.writeFile(dir, bulkPath(i), w.buf); err != nil {
			return e, err
		}
		e.paths = append(e.paths, bulkPath(i))
		e.userBytes += int64(len(w.buf))
	}
	return e, nil
}

// edits rewrites a random set of small files in a large folder.
type edits struct {
	g     *generator
	order []int // permutation scratch for drawing distinct files
	buf   [editsMaxBytes]byte
}

func editsPath(i int) string { return fmt.Sprintf("d%02d/f%05d.dat", i%editsDirs, i) }

func (w *edits) writeRandom(dir, path string) (int64, error) {
	data := w.buf[:editsMinBytes+w.g.rng.IntN(editsMaxBytes-editsMinBytes+1)]
	w.g.fill(data)
	return int64(len(data)), w.g.writeFile(dir, path, data)
}

func (w *edits) seedFolder(dir string) error {
	w.order = make([]int, editsFiles)
	for i := range w.order {
		w.order[i] = i
		if _, err := w.writeRandom(dir, editsPath(i)); err != nil {
			return err
		}
	}
	return nil
}

func (w *edits) nextPass(dir string) (passEdit, error) {
	var e passEdit
	// Partial Fisher–Yates: the first editsPerPass slots become a
	// uniform sample of distinct files.
	for i := 0; i < editsPerPass; i++ {
		j := i + w.g.rng.IntN(len(w.order)-i)
		w.order[i], w.order[j] = w.order[j], w.order[i]
		p := editsPath(w.order[i])
		n, err := w.writeRandom(dir, p)
		if err != nil {
			return e, err
		}
		e.paths = append(e.paths, p)
		e.userBytes += n
	}
	return e, nil
}
