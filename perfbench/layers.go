package main

import (
	"sort"
	"strings"

	"unidrive/internal/obs"
)

// layerInput is everything the traced half measured.
type layerInput struct {
	spans         []span
	samples       []sample
	before, after runSnapshot
	cpu           map[string]float64 // ms per attribution bucket
	storedBytes   int64
	liveBytes     int64
	overheadPct   float64
}

// perLayerMetrics names every per-layer metric and its unit, in report
// order. BENCHMARK.json lists the same names.
var perLayerMetrics = []metricName{
	{"localfs.read_bytes_per_user_byte", "B/B"},
	{"localfs.read_ms", "ms/pass"},
	{"localfs.write_ms", "ms/pass"},
	{"localfs.stat_calls", "count/pass"},
	{"localfs.durable_writes", "count/pass"},
	{"localfs.durable_ms", "ms/pass"},
	{"cpu.chunker_ms", "ms/pass"},
	{"cpu.erasure_ms", "ms/pass"},
	{"transfer.up.blocks", "count/pass"},
	{"transfer.up.overprovisioned", "count/pass"},
	{"transfer.up.useful_ratio", "ratio"},
	{"transfer.up.retries", "count/pass"},
	{"transfer.up.stragglers", "count/pass"},
	{"transfer.down.blocks", "count/pass"},
	{"transfer.down.hedges", "count/pass"},
	{"transfer.up.block_seconds_p50", "s"},
	{"transfer.down.block_seconds_p50", "s"},
	{"cpu.transfer_ms", "ms/pass"},
	{"cpu.sched_ms", "ms/pass"},
	{"cloud.block.up_bytes_per_user_byte", "B/B"},
	{"cloud.block.down_bytes_per_user_byte", "B/B"},
	{"cloud.block.calls", "count/pass"},
	{"cloud.block.ms", "ms/pass"},
	{"cloud.meta.up_bytes", "B/pass"},
	{"cloud.meta.down_bytes", "B/pass"},
	{"cloud.meta.calls", "count/pass"},
	{"cloud.meta.ms", "ms/pass"},
	{"cloud.lock.calls", "count/pass"},
	{"cloud.lock.ms", "ms/pass"},
	{"cloud.list_calls", "count/pass"},
	{"cloud.delete_calls", "count/pass"},
	{"cloud.errors", "count/pass"},
	{"cloud.stored_bytes_per_user_byte", "B/B"},
	{"cpu.meta_ms", "ms/pass"},
	{"cpu.metacrypt_ms", "ms/pass"},
	{"deltasync.refresh.incremental", "count/pass"},
	{"deltasync.refresh.full", "count/pass"},
	{"sync.diff.chain", "count/pass"},
	{"sync.diff.full", "count/pass"},
	{"qlock.rounds", "count/pass"},
	{"qlock.backoffs", "count/pass"},
	{"cpu.qlock_ms", "ms/pass"},
	{"cpu.journal_ms", "ms/pass"},
	{"cpu.middleware_ms", "ms/pass"},
	{"core.self_ms", "ms/pass"},
	{"cpu.core_ms", "ms/pass"},
	{"cpu.localfs_ms", "ms/pass"},
	{"cpu.client_ms", "ms/pass"},
	{"cpu.cloudsim_ms", "ms/pass"},
	{"cpu.gc_ms", "ms/pass"},
	{"runtime.alloc_bytes_per_user_byte", "B/B"},
	{"runtime.allocs_per_pass", "count/pass"},
	{"runtime.gc_cycles", "count/pass"},
	{"runtime.peak_rss_MiB", "MiB"},
	{"trace.overhead_pct", "%"},
}

// obsCounters are the per-layer metrics read as obs counter deltas,
// summed over both devices.
var obsCounters = []string{
	"transfer.up.blocks", "transfer.up.overprovisioned", "transfer.up.retries",
	"transfer.up.stragglers", "transfer.down.blocks", "transfer.down.hedges",
	"deltasync.refresh.incremental", "deltasync.refresh.full",
	"sync.diff.chain", "sync.diff.full", "qlock.rounds", "qlock.backoffs",
}

// layerMetrics turns the traced half's measurements into the
// per-layer metrics: times and counts per pass, bytes per user byte
// (the bytes of the files the passes rewrote; stored bytes are per
// byte the folder holds).
func layerMetrics(in layerInput) map[string]metric {
	v := map[string]float64{}
	passes := float64(max(len(in.samples), 1))
	var userBytes int64
	for _, s := range in.samples {
		userBytes += s.userBytes
	}
	user := float64(max(userBytes, 1))

	// Folder and cloud boundaries, from the spans.
	var folderRead, blockUp, blockDown int64
	for _, s := range in.spans {
		d := float64(s.End-s.Start) / 1e6
		switch s.Kind {
		case kindFolder:
			switch s.Op {
			case "read":
				folderRead += s.Bytes
				v["localfs.read_ms"] += d
			case "write":
				v["localfs.write_ms"] += d
			case "stat":
				v["localfs.stat_calls"]++
			case "durable_write":
				v["localfs.durable_writes"]++
				v["localfs.durable_ms"] += d
			}
		case kindCloud:
			if s.Err {
				v["cloud.errors"]++
			}
			switch s.Op {
			case "list":
				v["cloud.list_calls"]++
			case "delete":
				v["cloud.delete_calls"]++
			}
			switch s.Class {
			case classBlock:
				v["cloud.block.calls"]++
				v["cloud.block.ms"] += d
				if s.Op == "upload" {
					blockUp += s.Bytes
				} else if s.Op == "download" {
					blockDown += s.Bytes
				}
			case classMeta:
				v["cloud.meta.calls"]++
				v["cloud.meta.ms"] += d
				if s.Op == "upload" {
					v["cloud.meta.up_bytes"] += float64(s.Bytes)
				} else if s.Op == "download" {
					v["cloud.meta.down_bytes"] += float64(s.Bytes)
				}
			case classLock:
				v["cloud.lock.calls"]++
				v["cloud.lock.ms"] += d
			}
		}
	}
	v["localfs.read_bytes_per_user_byte"] = float64(folderRead) / user
	v["cloud.block.up_bytes_per_user_byte"] = float64(blockUp) / user
	v["cloud.block.down_bytes_per_user_byte"] = float64(blockDown) / user
	v["cloud.stored_bytes_per_user_byte"] = float64(in.storedBytes) / float64(max(in.liveBytes, 1))
	v["core.self_ms"] = coreSelfMs(in.spans)

	// obs counters and histograms.
	for _, name := range obsCounters {
		v[name] = float64(counterDelta(in.before, in.after, name))
	}
	if up := v["transfer.up.blocks"]; up > 0 {
		v["transfer.up.useful_ratio"] = (up - v["transfer.up.overprovisioned"]) / up
	}
	v["transfer.up.block_seconds_p50"] = histP50Delta(in.before, in.after, "transfer.up.block_seconds")
	v["transfer.down.block_seconds_p50"] = histP50Delta(in.before, in.after, "transfer.down.block_seconds")

	// CPU profile.
	for name, ms := range in.cpu {
		v[name] = ms
	}
	v["cpu.client_ms"] = clientCPU(in.cpu)

	// Runtime.
	m0, m1 := &in.before.mem, &in.after.mem
	v["runtime.alloc_bytes_per_user_byte"] = float64(m1.TotalAlloc-m0.TotalAlloc) / user
	v["runtime.allocs_per_pass"] = float64(m1.Mallocs - m0.Mallocs)
	v["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["runtime.peak_rss_MiB"] = peakRSSMiB()
	v["trace.overhead_pct"] = in.overheadPct

	for _, pm := range perLayerMetrics {
		if strings.HasSuffix(pm.unit, "/pass") {
			v[pm.name] /= passes
		}
	}
	return metrics(perLayerMetrics, v)
}

// clientCPU sums the CPU time of the client's own modules.
func clientCPU(cpu map[string]float64) float64 {
	var total float64
	for g, ms := range cpu {
		if isClientGroup(g) {
			total += ms
		}
	}
	return total
}

// isClientGroup reports whether an attribution bucket is one of the
// client's modules.
func isClientGroup(g string) bool {
	for _, cg := range cpuGroups {
		if g == cg {
			return true
		}
	}
	return false
}

func counterDelta(before, after runSnapshot, name string) int64 {
	return after.writer.Counter(name) - before.writer.Counter(name) +
		after.reader.Counter(name) - before.reader.Counter(name)
}

// histP50Delta is the median of the observations a histogram received
// between the two snapshots, over both devices.
func histP50Delta(before, after runSnapshot, name string) float64 {
	var bounds []float64
	var counts []int64
	add := func(s obs.Snapshot, sign int64) {
		h, ok := s.Histograms[name]
		if !ok {
			return
		}
		if counts == nil {
			bounds = h.Bounds
			counts = make([]int64, len(h.Buckets))
		}
		for i, c := range h.Buckets {
			if i < len(counts) {
				counts[i] += sign * c
			}
		}
	}
	add(after.writer, 1)
	add(after.reader, 1)
	add(before.writer, -1)
	add(before.reader, -1)
	return bucketQuantile(bounds, counts, 0.5)
}

// coreSelfMs is the total time of the pass spans not covered by any of
// their cloud or folder child spans: the client's own work plus its
// waits on anything but the two boundaries.
func coreSelfMs(spans []span) float64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Kind != kindPass && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var self int64
	for _, s := range spans {
		if s.Kind == kindPass {
			self += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
		}
	}
	return float64(self) / 1e6
}

// covered is the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
