package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"unidrive/internal/localfs"
)

func TestWrappedFolderKeepsDurableWriter(t *testing.T) {
	dir, err := localfs.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("test")
	if _, ok := tr.wrapFolder(dir, "d").(localfs.DurableWriter); !ok {
		t.Fatal("wrapped Dir no longer asserts as localfs.DurableWriter")
	}
	if _, ok := tr.wrapFolder(localfs.NewMem(), "d").(localfs.DurableWriter); ok {
		t.Fatal("wrapped Mem claims durability it does not have")
	}
}

// TestTracedPairRoundTrip drives a traced writer/reader pair through a
// multi-segment file and checks the bytes and the spans.
func TestTracedPairRoundTrip(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	data := make([]byte, 10<<20) // three segments at the default θ of 4 MiB
	rand.NewChaCha8([32]byte{1}).Read(data)
	writerDir := filepath.Join(root, "writer")
	if err := os.MkdirAll(filepath.Join(writerDir, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(writerDir, "a", "big.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	tr := newTracer("test")
	p, err := newPair(ctx, root, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	for _, d := range []*device{p.writer, p.reader} {
		if err := tr.pass(ctx, "SyncOnce", d.name, 1, func(ctx context.Context) error {
			_, err := d.client.SyncOnce(ctx)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(p.reader.dir, "a", "big.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reader's copy differs from the writer's")
	}
	if n := p.guardTotal(); n != 0 {
		t.Fatalf("guard counters moved by %d", n)
	}

	spans := tr.snapshot()
	assignParents(spans)
	var blockUp, blockDown, durable int64
	for _, s := range spans {
		if s.Kind != kindPass && s.Parent == 0 {
			t.Errorf("span %+v has no parent pass", s)
		}
		switch {
		case s.Kind == kindCloud && s.Class == classBlock && s.Op == "upload":
			blockUp += s.Bytes
		case s.Kind == kindCloud && s.Class == classBlock && s.Op == "download":
			blockDown += s.Bytes
		case s.Kind == kindFolder && s.Op == "durable_write":
			durable++
		}
	}
	if blockUp < int64(len(data)) || blockDown < int64(len(data)) {
		t.Errorf("block bytes up %d, down %d; want at least the file's %d each way", blockUp, blockDown, len(data))
	}
	if durable == 0 {
		t.Error("no durable journal write crossed the folder boundary")
	}
}

// TestGeneratorDeterministic checks that a seed fixes every workload's
// files and edits byte for byte, and that another seed changes them.
func TestGeneratorDeterministic(t *testing.T) {
	run := func(name string, seed uint64) (map[string]digest, []passEdit) {
		wl, g, err := newWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := wl.seedFolder(dir); err != nil {
			t.Fatal(err)
		}
		var edits []passEdit
		for i := 0; i < 3; i++ {
			e, err := wl.nextPass(dir)
			if err != nil {
				t.Fatal(err)
			}
			edits = append(edits, e)
		}
		if err := g.verifyFolder(dir); err != nil {
			t.Fatal(err)
		}
		return g.want, edits
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			want1, edits1 := run(name, 7)
			want2, edits2 := run(name, 7)
			if !reflect.DeepEqual(want1, want2) || !reflect.DeepEqual(edits1, edits2) {
				t.Fatal("same seed produced different inputs")
			}
			want3, _ := run(name, 8)
			if reflect.DeepEqual(want1, want3) {
				t.Fatal("different seeds produced the same files")
			}
		})
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, label := tail(xs)
	if v != 90 || label != "p89.9" {
		t.Fatalf("tail of 1..100 = %v %s, want 90 p89.9", v, label)
	}
	if v, label := tail(xs[:20]); v != 10.5 || label != "p50" {
		t.Fatalf("tail of 1..20 = %v %s, want the median 10.5 p50", v, label)
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	if got := bucketQuantile(bounds, []int64{0, 4, 0, 0}, 0.5); got != 1.5 {
		t.Fatalf("median = %v, want 1.5", got)
	}
	if got := bucketQuantile(bounds, []int64{0, 0, 0, 3}, 0.5); got != 4 {
		t.Fatalf("median in +Inf = %v, want the last bound 4", got)
	}
	if got := bucketQuantile(bounds, []int64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Fatalf("empty median = %v, want 0", got)
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {7, 20}}
	if got := covered(1, 10, ivs); got != 3+5 {
		t.Fatalf("covered = %d, want 8", got)
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/sha1.block", "unidrive/internal/chunker.Segment.ID", "unidrive/internal/core.(*Client).chunkFile"}, "cpu.chunker_ms"},
		{[]string{"runtime.memmove", "unidrive/internal/cloudsim.(*Store).put", "main.(*tracedCloud).Upload", "unidrive/internal/obs.(*instrumented).Upload"}, cpuCloudsim},
		{[]string{"main.(*tracer).add", "main.(*tracedCloud).Upload", "unidrive/internal/obs.(*instrumented).Upload"}, cpuBench},
		{[]string{"crypto/des.cryptBlock", "unidrive/internal/metacrypt.(*Cipher).Seal"}, "cpu.metacrypt_ms"},
		{[]string{"unidrive/internal/gf256.mulAddVecAVX2", "unidrive/internal/erasure.(*Coder).Encode"}, "cpu.erasure_ms"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, cpuGC},
		{[]string{"runtime.futex", "runtime.mstart"}, cpuOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestParseProfile records a real CPU profile and finds the busy
// function in it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("no samples recorded")
	}
	if ms := sawFunc(p, "unidrive/perfbench.spin") + sawFunc(p, "main.spin"); ms == 0 {
		t.Fatalf("spin not found in the profile's %d samples", len(p.samples))
	}
}

var spinSink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in
// step: the same workloads with the same reasons, and the same metric
// names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadWhy) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadWhy))
	}
	for _, w := range b.Workloads {
		if workloadWhy[w.Name] != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the program %q", w.Name, w.Why, workloadWhy[w.Name])
		}
	}
	check := func(kind string, got []named, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}
