package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes: gzipped
// protocol buffers in the profile.proto format. Only the fields the
// attribution needs are decoded — samples, locations with their
// (inlined) lines, functions and the string table.

// profile is a decoded CPU profile.
type profile struct {
	samples []profSample
	// locs maps a location id to its function names, innermost
	// (inlined callee) first.
	locs map[uint64][]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64  // [samples, cpu nanoseconds]
}

// stack returns the sample's function names, leaf first.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, id := range s.locs {
		out = append(out, p.locs[id]...)
	}
	return out
}

// cpuNanos is the sample's CPU time.
func (s profSample) cpuNanos() int64 {
	if len(s.values) < 2 {
		return 0
	}
	return s.values[len(s.values)-1]
}

func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]string{}}
	funcs := map[uint64]int64{} // function id -> name string index
	var strs []string
	type rawLoc struct {
		id    uint64
		funcs []uint64
	}
	var locs []rawLoc
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var l rawLoc
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					l.id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs = append(locs, l)
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, l := range locs {
		names := make([]string, 0, len(l.funcs))
		for _, f := range l.funcs {
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locs[l.id] = names
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. fn gets the
// value of varint fields in v and the bytes of length-delimited fields
// in b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// CPU attribution. A sample belongs to the innermost frame that is in
// a unidrive/internal/<module> package, so standard-library work
// (crypto/sha1, crypto/des, encoding/json, runtime.memmove) counts to
// the module that called it. The benchmark's own frames (the input
// generator, verification and tracing) are checked on the same walk:
// a sample whose innermost match is the benchmark is excluded. GC
// background workers count as GC.
const internalPrefix = "unidrive/internal/"

// cpuGroups maps a module to the metric its CPU time reports under.
var cpuGroups = map[string]string{
	"chunker":   "cpu.chunker_ms",
	"erasure":   "cpu.erasure_ms",
	"gf256":     "cpu.erasure_ms",
	"transfer":  "cpu.transfer_ms",
	"sched":     "cpu.sched_ms",
	"meta":      "cpu.meta_ms",
	"deltasync": "cpu.meta_ms",
	"metacrypt": "cpu.metacrypt_ms",
	"qlock":     "cpu.qlock_ms",
	"journal":   "cpu.journal_ms",
	"obs":       "cpu.middleware_ms",
	"health":    "cpu.middleware_ms",
	"capacity":  "cpu.middleware_ms",
	"core":      "cpu.core_ms",
	"localfs":   "cpu.localfs_ms",
	"cloud":     "cpu.cloud_ms",
}

// Attribution buckets outside the client.
const (
	cpuGC       = "cpu.gc_ms"
	cpuCloudsim = "cpu.cloudsim_ms" // the simulated providers
	cpuBench    = "cpu.bench_ms"    // generator, verification, tracing
	cpuOther    = "cpu.other_ms"    // runtime and anything unattributed
)

// attribute returns the bucket a sample's stack belongs to.
func attribute(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return cpuBench
		}
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			mod, _, _ := strings.Cut(rest, ".")
			if mod == "cloudsim" {
				return cpuCloudsim
			}
			if g, ok := cpuGroups[mod]; ok {
				return g
			}
			return cpuOther
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return cpuGC
		}
	}
	return cpuOther
}

// cpuByGroup sums a profile's CPU time per attribution bucket, in ms.
func cpuByGroup(p *profile) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		out[attribute(p.stack(s))] += float64(s.cpuNanos()) / 1e6
	}
	return out
}

// sawFunc reports the CPU time of samples with fn anywhere on the stack.
func sawFunc(p *profile, fn string) float64 {
	var ns int64
	for _, s := range p.samples {
		for _, f := range p.stack(s) {
			if f == fn {
				ns += s.cpuNanos()
				break
			}
		}
	}
	return float64(ns) / 1e6
}
