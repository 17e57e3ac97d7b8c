package transfer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/health"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// scriptedCloud returns one scripted error for every call and lets
// each call advance a Manual clock, so recorded latencies are exact.
type scriptedCloud struct {
	name    string
	clock   *vclock.Manual
	latency time.Duration
	data    []byte

	mu    sync.Mutex
	err   error
	calls int
}

func (f *scriptedCloud) Name() string { return f.name }

func (f *scriptedCloud) call() error {
	f.clock.Advance(f.latency)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	return f.err
}

func (f *scriptedCloud) set(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
}

func (f *scriptedCloud) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *scriptedCloud) Upload(context.Context, string, []byte) error { return f.call() }

func (f *scriptedCloud) Download(context.Context, string) ([]byte, error) {
	if err := f.call(); err != nil {
		return nil, err
	}
	return f.data, nil
}

func (f *scriptedCloud) CreateDir(context.Context, string) error { return f.call() }

func (f *scriptedCloud) List(context.Context, string) ([]cloud.Entry, error) {
	if err := f.call(); err != nil {
		return nil, err
	}
	return []cloud.Entry{{Name: "a"}, {Name: "b"}}, nil
}

func (f *scriptedCloud) Delete(context.Context, string) error { return f.call() }

// observedRig is one scripted cloud "c0" behind an Observed wrapper
// with every observer set, all on one manual clock and registry.
type observedRig struct {
	clock    *vclock.Manual
	reg      *obs.Registry
	health   *health.Tracker
	capacity *capacity.Tracker
	prober   *sched.Prober
	inner    *scriptedCloud
	w        *Observed
}

func newObservedRig() *observedRig {
	clk := vclock.NewManual(time.Unix(0, 0))
	reg := obs.NewRegistry()
	r := &observedRig{
		clock:    clk,
		reg:      reg,
		health:   health.NewDefaultTracker(clk, 7, reg),
		capacity: capacity.NewDefaultTracker(clk, reg),
		prober:   sched.NewProber(0),
		inner:    &scriptedCloud{name: "c0", clock: clk, latency: 20 * time.Millisecond, data: []byte("abcd")},
	}
	r.prober.SetObs(reg)
	r.w = r.wrap(r.inner)
	return r
}

// wrap puts inner behind the rig's observers.
func (r *observedRig) wrap(inner cloud.Interface) *Observed {
	return Observe(inner, r.prober, Config{Obs: r.reg, Health: r.health, Capacity: r.capacity, Clock: r.clock})
}

// opCalls is the number of op-table rows recorded for the cloud.
func (r *observedRig) opCalls(cloudName string) int64 {
	var n int64
	for _, row := range r.reg.Snapshot().Ops {
		if row.Cloud == cloudName {
			n += row.Calls()
		}
	}
	return n
}

// probeSamples counts the prober samples of c0 in both directions.
func (r *observedRig) probeSamples() int {
	return r.prober.Samples("c0", sched.Up) + r.prober.Samples("c0", sched.Down)
}

// tripBreaker opens c0's breaker with one outage answer.
func (r *observedRig) tripBreaker(t *testing.T) {
	t.Helper()
	r.inner.set(cloud.ErrUnavailable)
	if _, err := r.w.Download(context.Background(), "f"); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if s := r.health.Breaker("c0").State(); s != health.Open {
		t.Fatalf("state = %v, want Open", s)
	}
	r.inner.set(nil)
}

// callAll issues each of the five Web API calls once and returns their
// errors in order.
func callAll(c cloud.Interface) []error {
	ctx := context.Background()
	_, downErr := c.Download(ctx, "f")
	_, listErr := c.List(ctx, "d")
	return []error{c.Upload(ctx, "f", []byte("12345")), downErr, c.CreateDir(ctx, "d"), listErr, c.Delete(ctx, "f")}
}

var allOps = []string{obs.OpUpload, obs.OpDownload, obs.OpCreateDir, obs.OpList, obs.OpDelete}

// TestObserved is the behaviour table of the one cloud-call wrapper:
// the breaker gate, the single timing, and the fan-out to the op
// table, breaker, quota tracker and prober — including the orderings
// between them.
func TestObserved(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T, r *observedRig)
	}{
		{"RecordsAllOps", func(t *testing.T, r *observedRig) {
			if r.w.Name() != "c0" {
				t.Fatalf("Name = %q", r.w.Name())
			}
			for i, err := range callAll(r.w) {
				if err != nil {
					t.Fatalf("%s: %v", allOps[i], err)
				}
			}
			s := r.reg.Snapshot()
			for _, op := range allOps {
				row, ok := s.Op("c0", op)
				if !ok || row.Outcome(obs.OK) != 1 || row.Calls() != 1 {
					t.Fatalf("%s row = %+v", op, row)
				}
				// Each call advanced the manual clock by exactly 20 ms.
				if got := row.Latency.P50; got < 0.01 || got > 0.025 {
					t.Fatalf("%s p50 = %v, want ~0.02", op, got)
				}
			}
			if up, _ := s.Op("c0", obs.OpUpload); up.BytesUp != 5 || up.BytesDown != 0 {
				t.Fatalf("upload bytes = %d/%d", up.BytesUp, up.BytesDown)
			}
			if down, _ := s.Op("c0", obs.OpDownload); down.BytesDown != 4 || down.BytesUp != 0 {
				t.Fatalf("download bytes = %d/%d", down.BytesUp, down.BytesDown)
			}
		}},
		{"ClassifiesErrors", func(t *testing.T, r *observedRig) {
			r.inner.set(cloud.ErrTransient)
			if err := r.w.Upload(ctx, "f", []byte("xyz")); !errors.Is(err, cloud.ErrTransient) {
				t.Fatalf("err = %v", err)
			}
			r.inner.set(cloud.ErrUnavailable)
			if _, err := r.w.Download(ctx, "f"); !errors.Is(err, cloud.ErrUnavailable) {
				t.Fatalf("err = %v", err)
			}
			s := r.reg.Snapshot()
			row, _ := s.Op("c0", obs.OpUpload)
			if row.Outcome(obs.Transient) != 1 || row.Outcome(obs.OK) != 0 {
				t.Fatalf("upload row = %+v", row)
			}
			// Failed uploads record no payload bytes.
			if row.BytesUp != 0 {
				t.Fatalf("failed upload counted %d bytes", row.BytesUp)
			}
			if row, _ = s.Op("c0", obs.OpDownload); row.Outcome(obs.Unavailable) != 1 {
				t.Fatalf("download row = %+v", row)
			}
			if got := s.OutcomeTotal("c0", obs.Transient); got != 1 {
				t.Fatalf("OutcomeTotal transient = %d", got)
			}
		}},
		{"NilObservers", func(t *testing.T, r *observedRig) {
			// Every input nil: the wrapper forwards and records nothing.
			w := Observe(r.inner, nil, Config{})
			for i, err := range callAll(w) {
				if err != nil {
					t.Fatalf("%s: %v", allOps[i], err)
				}
			}
			r.inner.set(cloud.ErrUnavailable)
			for i, err := range callAll(w) {
				if !errors.Is(err, cloud.ErrUnavailable) {
					t.Fatalf("%s err = %v, want the inner error through", allOps[i], err)
				}
			}
			if r.inner.count() != 10 {
				t.Fatalf("inner saw %d calls, want 10", r.inner.count())
			}
		}},
		{"NilCapacityTracker", func(t *testing.T, r *observedRig) {
			w := Observe(r.inner, r.prober, Config{Obs: r.reg, Clock: r.clock})
			r.inner.set(fmt.Errorf("sim: %w", cloud.ErrQuotaExceeded))
			if err := w.Upload(ctx, "f", []byte("x")); !errors.Is(err, cloud.ErrQuotaExceeded) {
				t.Fatalf("err = %v, want ErrQuotaExceeded through", err)
			}
			r.inner.set(nil)
			if err := w.Delete(ctx, "f"); err != nil {
				t.Fatal(err)
			}
			if got := r.reg.Snapshot().OutcomeTotal("c0", obs.Quota); got != 1 {
				t.Fatalf("op table quota = %d, want 1", got)
			}
			if len(r.capacity.Snapshot()) != 0 {
				t.Fatal("an unset tracker received evidence")
			}
		}},
		{"QuotaAndSuccess", func(t *testing.T, r *observedRig) {
			if err := r.w.Upload(ctx, "p", make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			if got := r.capacity.UsedDelta("c0"); got != 64 {
				t.Fatalf("UsedDelta after upload = %d, want 64", got)
			}
			r.inner.set(fmt.Errorf("sim: %w", cloud.ErrQuotaExceeded))
			if err := r.w.Upload(ctx, "p", []byte("x")); !errors.Is(err, cloud.ErrQuotaExceeded) {
				t.Fatalf("err = %v, want ErrQuotaExceeded through", err)
			}
			if got := r.capacity.State("c0"); got != capacity.Full {
				t.Fatalf("state = %v, want Full", got)
			}
			// A non-quota failure is not capacity evidence.
			r.inner.set(fmt.Errorf("sim: %w", cloud.ErrTransient))
			_ = r.w.Upload(ctx, "p", []byte("x"))
			if got := r.capacity.Rejections("c0"); got != 1 {
				t.Fatalf("Rejections = %d, want 1", got)
			}
			// A successful sizeless delete reopens the full cloud for a probe.
			r.inner.set(nil)
			if err := r.w.Delete(ctx, "p"); err != nil {
				t.Fatal(err)
			}
			if got := r.capacity.State("c0"); got != capacity.Probing {
				t.Fatalf("state after delete = %v, want Probing", got)
			}
			// Failed deletes observe nothing.
			r.capacity.ObserveQuotaExceeded("c0")
			r.inner.set(errors.New("boom"))
			_ = r.w.Delete(ctx, "p")
			if got := r.capacity.State("c0"); got != capacity.Full {
				t.Fatalf("state after failed delete = %v, want Full", got)
			}
		}},
		{"QuotaObservedOnceNeverBreakerEvidence", func(t *testing.T, r *observedRig) {
			r.inner.set(fmt.Errorf("sim: %w", cloud.ErrQuotaExceeded))
			for i := 0; i < 5; i++ {
				if err := r.w.Upload(ctx, "p", []byte("x")); !errors.Is(err, cloud.ErrQuotaExceeded) {
					t.Fatalf("err = %v", err)
				}
			}
			s := r.reg.Snapshot()
			if got := s.OutcomeTotal("c0", obs.Quota); got != 5 {
				t.Fatalf("op table quota = %d, want 5", got)
			}
			if got := r.capacity.Rejections("c0"); got != 5 {
				t.Fatalf("Rejections = %d, want 5 (one per real rejection)", got)
			}
			if got := s.Counter("capacity.quota_rejections"); got != 5 {
				t.Fatalf("capacity.quota_rejections = %d, want 5", got)
			}
			b := r.health.Breaker("c0")
			if b.State() != health.Closed || b.ConsecutiveFailures() != 0 || b.ErrorRate() != 0 {
				t.Fatalf("quota rejections reached the breaker: %v, %d fails, rate %v",
					b.State(), b.ConsecutiveFailures(), b.ErrorRate())
			}
			// A full cloud is not slow: the prober takes no sample.
			if got := r.probeSamples(); got != 0 {
				t.Fatalf("prober samples = %d, want 0", got)
			}
		}},
		{"ReadsSayNothingToCapacity", func(t *testing.T, r *observedRig) {
			if _, err := r.w.Download(ctx, "p"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.w.List(ctx, ""); err != nil {
				t.Fatal(err)
			}
			if err := r.w.CreateDir(ctx, "d"); err != nil {
				t.Fatal(err)
			}
			if len(r.capacity.Snapshot()) != 0 {
				t.Fatalf("reads created capacity records: %v", r.capacity.Snapshot())
			}
		}},
		{"BreakerFailsFastAndReports", func(t *testing.T, r *observedRig) {
			if err := r.w.Upload(ctx, "f", []byte("hello")); err != nil {
				t.Fatalf("upload through closed breaker: %v", err)
			}
			// Outage: the first unavailable error trips the breaker...
			r.inner.set(cloud.ErrUnavailable)
			if err := r.w.Upload(ctx, "g", []byte("x")); !errors.Is(err, cloud.ErrUnavailable) {
				t.Fatalf("err = %v, want ErrUnavailable", err)
			}
			b := r.health.Breaker("c0")
			if b.State() != health.Open {
				t.Fatalf("state = %v, want Open", b.State())
			}
			callsBefore := r.inner.count()
			// ...and every further call fails fast without touching the cloud.
			for i := 0; i < 5; i++ {
				if err := r.w.Upload(ctx, "g", []byte("x")); !errors.Is(err, cloud.ErrCircuitOpen) {
					t.Fatalf("err = %v, want ErrCircuitOpen", err)
				}
			}
			for i, err := range callAll(r.w) {
				if !errors.Is(err, cloud.ErrCircuitOpen) {
					t.Fatalf("%s err = %v, want ErrCircuitOpen", allOps[i], err)
				}
			}
			if got := r.inner.count(); got != callsBefore {
				t.Fatalf("open breaker leaked %d calls to the cloud", got-callsBefore)
			}
			if n := r.reg.Counter("health.breaker.c0.rejected").Value(); n != 10 {
				t.Errorf("rejected counter = %d, want 10", n)
			}
			if n := r.reg.Counter("health.breaker.rejected").Value(); n != 10 {
				t.Errorf("health.breaker.rejected = %d, want 10", n)
			}
			if n := r.reg.Counter("health.breaker.c0.opened").Value(); n != 1 {
				t.Errorf("opened counter = %d, want 1", n)
			}
			// Recovery: the cooldown elapses, the cloud comes back, and
			// probe successes close the breaker again.
			r.inner.set(nil)
			r.clock.Advance(time.Minute)
			for i := 0; i < 2; i++ {
				if err := r.w.Upload(ctx, "h", []byte("y")); err != nil {
					t.Fatalf("probe upload %d: %v", i, err)
				}
			}
			if b.State() != health.Closed {
				t.Fatalf("state after probes = %v, want Closed", b.State())
			}
			if n := r.reg.Counter("health.breaker.c0.closed").Value(); n != 1 {
				t.Errorf("closed counter = %d, want 1", n)
			}
			if n := r.reg.Counter("health.breaker.c0.half_opened").Value(); n != 1 {
				t.Errorf("half_opened counter = %d, want 1", n)
			}
			if v := r.reg.Gauge("health.breaker.c0.state").Value(); v != float64(health.Closed) {
				t.Errorf("state gauge = %v, want %v", v, float64(health.Closed))
			}
		}},
		{"BreakerRejectionRecordsNothing", func(t *testing.T, r *observedRig) {
			r.tripBreaker(t)
			rows, samples := r.opCalls("c0"), r.probeSamples()
			failures := r.reg.Counter("sched.probe.failures").Value()
			for i, err := range callAll(r.w) {
				if !errors.Is(err, cloud.ErrCircuitOpen) {
					t.Fatalf("%s err = %v, want ErrCircuitOpen", allOps[i], err)
				}
			}
			if got := r.opCalls("c0"); got != rows {
				t.Errorf("rejected calls added %d op-table rows", got-rows)
			}
			if len(r.capacity.Snapshot()) != 0 {
				t.Errorf("rejected calls reached the quota tracker: %v", r.capacity.Snapshot())
			}
			if got := r.probeSamples(); got != samples {
				t.Errorf("rejected calls added %d prober samples", got-samples)
			}
			if got := r.reg.Counter("sched.probe.failures").Value(); got != failures {
				t.Errorf("rejected calls added %d prober failures", got-failures)
			}
		}},
		{"ProbesAllTraffic", func(t *testing.T, r *observedRig) {
			if err := r.w.Upload(ctx, "meta/version", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if r.prober.Samples("c0", sched.Up) != 1 {
				t.Fatal("upload not observed")
			}
			if _, err := r.w.Download(ctx, "meta/version"); err != nil {
				t.Fatal(err)
			}
			if r.prober.Samples("c0", sched.Down) != 1 {
				t.Fatal("download not observed")
			}
			if _, err := r.w.List(ctx, "meta"); err != nil {
				t.Fatal(err)
			}
			if r.prober.Samples("c0", sched.Down) != 2 {
				t.Fatal("list not observed as download traffic")
			}
			// Directory and delete calls carry no payload to probe with.
			_ = r.w.CreateDir(ctx, "d")
			_ = r.w.Delete(ctx, "meta/version")
			if got := r.probeSamples(); got != 3 {
				t.Fatalf("prober samples = %d, want 3", got)
			}
		}},
		{"NotFoundIsNotAProberFailure", func(t *testing.T, r *observedRig) {
			r.inner.set(fmt.Errorf("sim: %w", cloud.ErrNotFound))
			if _, err := r.w.Download(ctx, "ghost"); !errors.Is(err, cloud.ErrNotFound) {
				t.Fatalf("err = %v, want not-found", err)
			}
			// A 404 is a healthy response: it must not record a
			// zero-throughput sample that would sink the cloud.
			if got := r.probeSamples(); got != 0 {
				t.Fatalf("NotFound recorded %d throughput samples", got)
			}
			if got := r.health.Breaker("c0").ConsecutiveFailures(); got != 0 {
				t.Fatalf("NotFound counted as %d breaker failures", got)
			}
		}},
		{"TransientFailureSinksRanking", func(t *testing.T, r *observedRig) {
			bad := r.wrap(cloudsim.NewFlaky(cloudsim.NewDirect(cloudsim.NewStore("bad", 0)), 1.0, 1))
			good := &scriptedCloud{name: "good", clock: r.clock, latency: time.Millisecond}
			wGood := r.wrap(good)
			for i := 0; i < 3; i++ {
				_ = bad.Upload(ctx, "f", []byte("x"))
				_ = wGood.Upload(ctx, "f", []byte("x"))
			}
			if got := r.reg.Counter("sched.probe.failures").Value(); got != 3 {
				t.Fatalf("sched.probe.failures = %d, want 3", got)
			}
			if ranked := r.prober.Rank([]string{"bad", "good"}, sched.Up); ranked[0] != "good" {
				t.Fatalf("rank = %v; failing cloud should sink", ranked)
			}
		}},
		{"DeleteAndCreateDirPassThrough", func(t *testing.T, r *observedRig) {
			store := cloudsim.NewStore("c1", 0)
			w := r.wrap(cloudsim.NewDirect(store))
			if err := w.CreateDir(ctx, "d"); err != nil {
				t.Fatal(err)
			}
			if err := w.Upload(ctx, "d/f", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := w.Delete(ctx, "d"); err != nil {
				t.Fatal(err)
			}
			if store.FileCount() != 0 {
				t.Fatal("delete not forwarded")
			}
		}},
		{"ThroughputReflectsClock", func(t *testing.T, r *observedRig) {
			// 64 KiB in 20 ms of the wrapper's clock.
			if err := r.w.Upload(ctx, "f", make([]byte, 1<<16)); err != nil {
				t.Fatal(err)
			}
			want := float64(1<<16) / 0.02
			if tp := r.prober.Throughput("c0", sched.Up); math.Abs(tp-want) > want*1e-9 {
				t.Fatalf("throughput = %v, want %v", tp, want)
			}
		}},
		{"ConcurrentCalls", func(t *testing.T, r *observedRig) {
			const workers, perG = 4, 200
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						_ = r.w.Upload(ctx, "f", []byte("x"))
					}
				}()
			}
			wg.Wait()
			const total = workers * perG
			row, _ := r.reg.Snapshot().Op("c0", obs.OpUpload)
			if row.Outcome(obs.OK) != total || row.BytesUp != total {
				t.Fatalf("upload row = %+v, want %d ok calls and bytes", row, total)
			}
			if got := r.capacity.UsedDelta("c0"); got != total {
				t.Fatalf("UsedDelta = %d, want %d", got, total)
			}
			if got := r.prober.Samples("c0", sched.Up); got != total {
				t.Fatalf("prober samples = %d, want %d", got, total)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newObservedRig()) })
	}
}
