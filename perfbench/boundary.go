package main

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/localfs"
)

// Span kinds.
const (
	kindPass   = "pass"   // one client call: SyncOnce, SyncDirty or SyncRemote
	kindCloud  = "cloud"  // one call across a cloud.Interface handed to core.New
	kindFolder = "folder" // one call across the localfs.Folder handed to core.New
)

// Cloud path classes, by the prefixes the client writes under.
const (
	classBlock = "block"
	classMeta  = "meta"
	classLock  = "lock"
	classOther = "other"
)

// span is one timed call. Times are nanoseconds since the tracer's
// epoch. Cloud spans name their parent pass through the context the
// pass handed to the client; folder spans carry no context, so their
// parent is assigned afterwards from the pass whose window holds them.
type span struct {
	Workload string `json:"workload,omitempty"` // set on pass spans
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Kind     string `json:"kind"`
	Op       string `json:"op"`
	Device   string `json:"device"`
	Class    string `json:"class,omitempty"`
	Pass     int    `json:"pass,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Bytes    int64  `json:"bytes,omitempty"`
	Err      bool   `json:"err,omitempty"`
}

type spanKey struct{}

// tracer records spans at the two boundaries core.New accepts. The
// wrappers it hands out are transparent: each call goes straight to
// the wrapped value, with no retry, buffering or copy, and while the
// tracer is off they record nothing at all. Spans stay in memory until
// the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	on       atomic.Bool
	nextID   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// pass runs fn as the root span of one client call; fn must hand ctx
// to the client so cloud calls find their parent. A nil tracer just
// runs fn.
func (t *tracer) pass(ctx context.Context, op, dev string, n int, fn func(context.Context) error) error {
	if t == nil || !t.on.Load() {
		return fn(ctx)
	}
	id := t.nextID.Add(1)
	start := t.now()
	err := fn(context.WithValue(ctx, spanKey{}, id))
	t.add(span{Workload: t.workload, ID: id, Kind: kindPass, Op: op, Device: dev, Pass: n,
		Start: start, End: t.now(), Err: err != nil})
	return err
}

// record adds a boundary span that started at start.
func (t *tracer) record(parent uint64, kind, op, dev, class string, start, bytes int64, err error) {
	t.add(span{ID: t.nextID.Add(1), Parent: parent, Kind: kind, Op: op, Device: dev, Class: class,
		Start: start, End: t.now(), Bytes: bytes, Err: err != nil})
}

// parentOf is the pass span a cloud call's context descends from, or
// 0 for calls the client makes under a context of its own.
func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func cloudClass(path string) string {
	switch {
	case strings.HasPrefix(path, ".unidrive/blocks"):
		return classBlock
	case strings.HasPrefix(path, ".unidrive/meta"):
		return classMeta
	case strings.HasPrefix(path, ".unidrive/locks"):
		return classLock
	}
	return classOther
}

// tracedCloud times every call across one cloud.Interface.
type tracedCloud struct {
	inner cloud.Interface
	t     *tracer
	dev   string
}

func (t *tracer) wrapCloud(c cloud.Interface, dev string) cloud.Interface {
	return &tracedCloud{inner: c, t: t, dev: dev}
}

func (c *tracedCloud) Name() string { return c.inner.Name() }

func (c *tracedCloud) Upload(ctx context.Context, path string, data []byte) error {
	if !c.t.on.Load() {
		return c.inner.Upload(ctx, path, data)
	}
	start := c.t.now()
	err := c.inner.Upload(ctx, path, data)
	c.t.record(parentOf(ctx), kindCloud, "upload", c.dev, cloudClass(path), start, int64(len(data)), err)
	return err
}

func (c *tracedCloud) Download(ctx context.Context, path string) ([]byte, error) {
	if !c.t.on.Load() {
		return c.inner.Download(ctx, path)
	}
	start := c.t.now()
	data, err := c.inner.Download(ctx, path)
	c.t.record(parentOf(ctx), kindCloud, "download", c.dev, cloudClass(path), start, int64(len(data)), err)
	return data, err
}

func (c *tracedCloud) CreateDir(ctx context.Context, path string) error {
	if !c.t.on.Load() {
		return c.inner.CreateDir(ctx, path)
	}
	start := c.t.now()
	err := c.inner.CreateDir(ctx, path)
	c.t.record(parentOf(ctx), kindCloud, "mkdir", c.dev, cloudClass(path), start, 0, err)
	return err
}

func (c *tracedCloud) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	if !c.t.on.Load() {
		return c.inner.List(ctx, path)
	}
	start := c.t.now()
	entries, err := c.inner.List(ctx, path)
	c.t.record(parentOf(ctx), kindCloud, "list", c.dev, cloudClass(path), start, 0, err)
	return entries, err
}

func (c *tracedCloud) Delete(ctx context.Context, path string) error {
	if !c.t.on.Load() {
		return c.inner.Delete(ctx, path)
	}
	start := c.t.now()
	err := c.inner.Delete(ctx, path)
	c.t.record(parentOf(ctx), kindCloud, "delete", c.dev, cloudClass(path), start, 0, err)
	return err
}

// tracedFolder times every call across one localfs.Folder.
type tracedFolder struct {
	inner localfs.Folder
	t     *tracer
	dev   string
}

// durableFolder is a tracedFolder over a folder that is also a
// localfs.DurableWriter. The intent journal type-asserts that
// interface; hiding it would silently benchmark a non-durable client.
type durableFolder struct {
	*tracedFolder
	dw localfs.DurableWriter
}

// wrapFolder returns a traced folder that implements
// localfs.DurableWriter exactly when f does. Watchable is not passed
// through: the benchmark keeps the watcher off.
func (t *tracer) wrapFolder(f localfs.Folder, dev string) localfs.Folder {
	tf := &tracedFolder{inner: f, t: t, dev: dev}
	if dw, ok := f.(localfs.DurableWriter); ok {
		return &durableFolder{tracedFolder: tf, dw: dw}
	}
	return tf
}

func (f *tracedFolder) ReadFile(path string) ([]byte, error) {
	if !f.t.on.Load() {
		return f.inner.ReadFile(path)
	}
	start := f.t.now()
	data, err := f.inner.ReadFile(path)
	f.t.record(0, kindFolder, "read", f.dev, "", start, int64(len(data)), err)
	return data, err
}

func (f *tracedFolder) WriteFile(path string, data []byte, modTime time.Time) error {
	if !f.t.on.Load() {
		return f.inner.WriteFile(path, data, modTime)
	}
	start := f.t.now()
	err := f.inner.WriteFile(path, data, modTime)
	f.t.record(0, kindFolder, "write", f.dev, "", start, int64(len(data)), err)
	return err
}

func (f *tracedFolder) Remove(path string) error {
	if !f.t.on.Load() {
		return f.inner.Remove(path)
	}
	start := f.t.now()
	err := f.inner.Remove(path)
	f.t.record(0, kindFolder, "remove", f.dev, "", start, 0, err)
	return err
}

func (f *tracedFolder) Stat(path string) (localfs.FileInfo, error) {
	if !f.t.on.Load() {
		return f.inner.Stat(path)
	}
	start := f.t.now()
	fi, err := f.inner.Stat(path)
	f.t.record(0, kindFolder, "stat", f.dev, "", start, 0, err)
	return fi, err
}

func (f *tracedFolder) ListAll() ([]localfs.FileInfo, error) {
	if !f.t.on.Load() {
		return f.inner.ListAll()
	}
	start := f.t.now()
	infos, err := f.inner.ListAll()
	f.t.record(0, kindFolder, "list", f.dev, "", start, 0, err)
	return infos, err
}

func (f *durableFolder) WriteFileDurable(path string, data []byte, modTime time.Time) error {
	if !f.t.on.Load() {
		return f.dw.WriteFileDurable(path, data, modTime)
	}
	start := f.t.now()
	err := f.dw.WriteFileDurable(path, data, modTime)
	f.t.record(0, kindFolder, "durable_write", f.dev, "", start, int64(len(data)), err)
	return err
}
