package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/health"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
	"unidrive/internal/vclock"
)

// uploadHook runs a callback before every upload it forwards.
type uploadHook struct {
	cloud.Interface
	before func(path string)
}

func (h uploadHook) Upload(ctx context.Context, path string, data []byte) error {
	h.before(path)
	return h.Interface.Upload(ctx, path, data)
}

// TestSetCloudsKeepsObservers pins that a cloud-set change rebuilds
// the whole client stack: the added cloud's traffic reaches the op
// table, the breaker tracker and the quota tracker, and the rebuilt
// transfer engine still claims its connection slots from the shared
// fair scheduler under the client's tenant.
func TestSetCloudsKeepsObservers(t *testing.T) {
	r := newRig(5)
	clk := vclock.Real{}
	reg := obs.NewRegistry()
	tracker := health.NewDefaultTracker(clk, 1, reg)
	capTracker := capacity.NewDefaultTracker(clk, reg)
	fair := transfer.NewFairScheduler(transfer.DefaultConnsPerCloud, reg)
	const tenant = "tenant-a"

	var clouds []cloud.Interface
	for _, st := range r.stores {
		clouds = append(clouds, cloudsim.NewDirect(st))
	}
	folder := localfs.NewMem()
	a, err := New(clouds, folder, Config{
		Device:     "alpha",
		Passphrase: "shared-secret",
		Theta:      4096,
		LockExpiry: 500 * time.Millisecond,
		Clock:      clk,
		Obs:        reg,
		Health:     tracker,
		Capacity:   capTracker,
		Fair:       fair,
		TenantID:   tenant,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, folder, "data.bin", randContent(21, 10_000))
	syncOK(t, a)

	// Add c5; every block upload to it records whether the uploading
	// engine held a fair-share slot under the client's tenant.
	newStore := cloudsim.NewStore("c5", 0)
	c5 := cloudsim.NewFlaky(cloudsim.NewDirect(newStore), 0, 5)
	var blockUploads, slotHeld atomic.Int64
	hooked := uploadHook{Interface: c5, before: func(path string) {
		if strings.HasPrefix(path, transfer.DefaultBlockDir+"/") {
			blockUploads.Add(1)
			if fair.Held("c5", tenant) > 0 {
				slotHeld.Add(1)
			}
		}
	}}
	if err := a.SetClouds(ctxT(t), append(clouds, hooked)); err != nil {
		t.Fatal(err)
	}
	if newStore.FileCount() == 0 {
		t.Fatal("new cloud received nothing")
	}
	if row, ok := reg.Snapshot().Op("c5", obs.OpUpload); !ok || row.Outcome(obs.OK) == 0 {
		t.Fatalf("added cloud has no upload rows in the op table: %+v", row)
	}
	if capTracker.UsedDelta("c5") == 0 {
		t.Fatal("rebalance uploads to the added cloud bypassed the quota tracker")
	}

	// New content after the switch: the rebuilt engine's block uploads
	// to c5 each run inside a fair-share slot of the client's tenant.
	blockUploads.Store(0)
	slotHeld.Store(0)
	writeFile(t, folder, "more.bin", randContent(22, 20_000))
	syncOK(t, a)
	if n := blockUploads.Load(); n == 0 || slotHeld.Load() != n {
		t.Fatalf("%d of %d block uploads to c5 held a fair slot of %s", slotHeld.Load(), n, tenant)
	}

	// An outage of the added cloud trips its breaker.
	c5.SetDown(true)
	writeFile(t, folder, "late.bin", randContent(23, 10_000))
	syncOK(t, a)
	if st := tracker.Breaker("c5").State(); st != health.Open {
		t.Fatalf("c5 breaker = %v after an outage, want open", st)
	}
	if got := reg.Snapshot().OutcomeTotal("c5", obs.Unavailable); got == 0 {
		t.Fatal("c5's outage answers are missing from the op table")
	}
}
