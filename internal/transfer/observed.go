package transfer

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/health"
	"unidrive/internal/obs"
	"unidrive/internal/sched"
	"unidrive/internal/vclock"
)

// Observed is the one cloud.Interface wrapper of the client stack:
// every Web API call is a single event that several observers need to
// see (paper §6.2 makes each request an in-channel bandwidth probe).
// Each of the five calls runs in this order:
//
//  1. Gate on the cloud's circuit breaker. A rejected call fails fast
//     with an error wrapping cloud.ErrCircuitOpen and records nothing
//     else: it never reached the cloud, so it is no op-table row, no
//     capacity evidence and no prober sample.
//  2. Time the real request once with the configured clock.
//  3. Fan the outcome out: the per-cloud op table, the breaker, the
//     quota tracker (upload ok or quota, delete ok) and the prober
//     (uploads, downloads and lists; network-class failures only).
//
// One real request is therefore exactly one op-table row and one
// breaker report, and each ErrQuotaExceeded the provider returned is
// observed exactly once — the counts the chaos soaks reconcile
// against injected faults. Because control-plane traffic touches every
// cloud early, the prober ranks the clouds before the first data block
// moves.
type Observed struct {
	inner    cloud.Interface
	name     string
	reg      *obs.Registry
	breaker  *health.Breaker
	capacity *capacity.Tracker
	prober   *sched.Prober
	clock    vclock.Clock
}

var _ cloud.Interface = (*Observed)(nil)

// Observe wraps inner with cfg's Obs, Health, Capacity and Clock and
// the given prober. A nil input disables that observer; a nil Clock
// uses the real one.
func Observe(inner cloud.Interface, prober *sched.Prober, cfg Config) *Observed {
	w := &Observed{
		inner:    inner,
		name:     inner.Name(),
		reg:      cfg.Obs,
		capacity: cfg.Capacity,
		prober:   prober,
		clock:    cfg.Clock,
	}
	if w.clock == nil {
		w.clock = vclock.Real{}
	}
	if cfg.Health != nil {
		w.breaker = cfg.Health.Breaker(w.name)
	}
	return w
}

// Name implements cloud.Interface.
func (w *Observed) Name() string { return w.name }

// begin gates one call on the breaker and returns its start time.
func (w *Observed) begin(op string) (time.Time, error) {
	if w.breaker != nil && !w.breaker.Allow() {
		return time.Time{}, fmt.Errorf("transfer: %s %s rejected: %w", w.name, op, cloud.ErrCircuitOpen)
	}
	return w.clock.Now(), nil
}

// end records one real request in the op table and the breaker and
// returns its latency.
func (w *Observed) end(op string, start time.Time, up, down int64, err error) time.Duration {
	d := w.clock.Now().Sub(start)
	w.reg.Op(w.name, op).Record(obs.Classify(err), up, down, d)
	if w.breaker != nil {
		w.breaker.Report(err, d)
	}
	return d
}

// probe feeds one upload, download or list outcome to the prober.
func (w *Observed) probe(dir sched.Direction, size int64, d time.Duration, err error) {
	switch {
	case w.prober == nil:
	case err == nil:
		w.prober.Observe(w.name, dir, size, d)
	case errors.Is(err, cloud.ErrTransient) || errors.Is(err, cloud.ErrUnavailable):
		// Only network-class failures say something about the cloud;
		// a NotFound is a perfectly healthy response.
		w.prober.ObserveFailure(w.name, dir)
	}
}

// Upload implements cloud.Interface. A success is proof of space to
// the quota tracker, a quota rejection proof of none.
func (w *Observed) Upload(ctx context.Context, path string, data []byte) error {
	start, err := w.begin(obs.OpUpload)
	if err != nil {
		return err
	}
	err = w.inner.Upload(ctx, path, data)
	size, up := int64(len(data)), int64(0)
	if err == nil {
		up = size // a failed upload moved no payload
	}
	d := w.end(obs.OpUpload, start, up, 0, err)
	switch {
	case err == nil:
		w.capacity.ObserveUpload(w.name, size)
	case errors.Is(err, cloud.ErrQuotaExceeded):
		w.capacity.ObserveQuotaExceeded(w.name)
	}
	w.probe(sched.Up, size, d, err)
	return err
}

// Download implements cloud.Interface.
func (w *Observed) Download(ctx context.Context, path string) ([]byte, error) {
	start, err := w.begin(obs.OpDownload)
	if err != nil {
		return nil, err
	}
	data, err := w.inner.Download(ctx, path)
	size := int64(len(data))
	w.probe(sched.Down, size, w.end(obs.OpDownload, start, 0, size, err), err)
	return data, err
}

// CreateDir implements cloud.Interface.
func (w *Observed) CreateDir(ctx context.Context, path string) error {
	start, err := w.begin(obs.OpCreateDir)
	if err != nil {
		return err
	}
	err = w.inner.CreateDir(ctx, path)
	w.end(obs.OpCreateDir, start, 0, 0, err)
	return err
}

// List implements cloud.Interface. A listing counts as download
// traffic of about 64 bytes per entry.
func (w *Observed) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	start, err := w.begin(obs.OpList)
	if err != nil {
		return nil, err
	}
	entries, err := w.inner.List(ctx, path)
	w.probe(sched.Down, int64(len(entries))*64, w.end(obs.OpList, start, 0, 0, err), err)
	return entries, err
}

// Delete implements cloud.Interface. A successful delete is the quota
// tracker's probe-after-free signal; the interface does not expose the
// freed object's size, so the tracker credits at least one byte.
func (w *Observed) Delete(ctx context.Context, path string) error {
	start, err := w.begin(obs.OpDelete)
	if err != nil {
		return err
	}
	err = w.inner.Delete(ctx, path)
	w.end(obs.OpDelete, start, 0, 0, err)
	if err == nil {
		w.capacity.ObserveDelete(w.name, 0)
	}
	return err
}
