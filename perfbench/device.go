package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/core"
	"unidrive/internal/health"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

const (
	numClouds  = 5
	passphrase = "perfbench-passphrase"
)

// guardCounters are obs counters that must not move in a healthy pass:
// with zero-fault in-memory clouds any of them moving means the pass
// took a degraded path, so it counts as failed.
var guardCounters = []string{
	"health.breaker.rejected",
	"capacity.quota_rejections",
	"core.decode.sha_mismatch",
	"transfer.up.blocks_failed",
	"transfer.down.blocks_failed",
}

// device is one UniDrive client with its own real folder.
type device struct {
	name   string
	dir    string
	client *core.Client
	reg    *obs.Registry
}

// pair is a writer and a reader device sharing five in-memory clouds.
type pair struct {
	stores         []*cloudsim.Store
	writer, reader *device
}

// newPair builds both devices over fresh clouds, with their folders
// under root. The writer's folder may already hold files. With a
// non-nil tracer every cloud and folder the clients see is wrapped in
// its boundary recorders.
func newPair(ctx context.Context, root string, seed uint64, tr *tracer) (*pair, error) {
	p := &pair{stores: make([]*cloudsim.Store, numClouds)}
	for i := range p.stores {
		p.stores[i] = cloudsim.NewStore(fmt.Sprintf("cloud%d", i+1), 0)
	}
	var err error
	if p.writer, err = p.newDevice(ctx, root, "writer", seed, tr); err != nil {
		return nil, err
	}
	if p.reader, err = p.newDevice(ctx, root, "reader", seed+1, tr); err != nil {
		return nil, err
	}
	return p, nil
}

// newDevice configures a client the way cmd/unidrive does: obs
// registry, breaker and capacity trackers, the default K/Kr/Ks, θ and
// connections per cloud, DES metadata, then state restore and crash
// recovery. The watcher stays off: the benchmark names the dirty paths.
func (p *pair) newDevice(ctx context.Context, root, name string, seed uint64, tr *tracer) (*device, error) {
	dir := filepath.Join(root, name)
	d, err := localfs.NewDir(dir)
	if err != nil {
		return nil, err
	}
	var folder localfs.Folder = d
	clouds := make([]cloud.Interface, len(p.stores))
	for i, s := range p.stores {
		clouds[i] = cloudsim.NewDirect(s)
	}
	if tr != nil {
		folder = tr.wrapFolder(folder, name)
		for i := range clouds {
			clouds[i] = tr.wrapCloud(clouds[i], name)
		}
	}
	reg := obs.NewRegistry()
	client, err := core.New(clouds, folder, core.Config{
		Device:       name,
		Passphrase:   passphrase,
		K:            3, // cmd/unidrive's -k and -ks defaults; Kr defaults to N-2
		Ks:           2,
		SyncInterval: 30 * time.Second,
		DisableWatch: true,
		Obs:          reg,
		Health:       health.NewDefaultTracker(vclock.Real{}, int64(seed), reg),
		Capacity:     capacity.NewDefaultTracker(vclock.Real{}, reg),
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if _, _, err := client.LoadState(); err != nil {
		return nil, fmt.Errorf("%s: load state: %w", name, err)
	}
	if _, err := client.Recover(ctx); err != nil {
		return nil, fmt.Errorf("%s: recover: %w", name, err)
	}
	return &device{name: name, dir: dir, client: client, reg: reg}, nil
}

// converge commits the writer's folder and applies it on the reader.
func (p *pair) converge(ctx context.Context) error {
	if _, err := p.writer.client.SyncOnce(ctx); err != nil {
		return fmt.Errorf("writer: %w", err)
	}
	if _, err := p.reader.client.SyncOnce(ctx); err != nil {
		return fmt.Errorf("reader: %w", err)
	}
	return nil
}

// guardTotal sums the guard counters over both devices.
func (p *pair) guardTotal() int64 {
	var n int64
	for _, d := range []*device{p.writer, p.reader} {
		s := d.reg.Snapshot()
		for _, c := range guardCounters {
			n += s.Counter(c)
		}
	}
	return n
}

// storedBytes is what the simulated clouds hold in total.
func (p *pair) storedBytes() int64 {
	var n int64
	for _, s := range p.stores {
		n += s.Used()
	}
	return n
}
