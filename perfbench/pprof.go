package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run buckets a CPU profile by module instead of instrumenting
// the program. Each sample goes to exactly one bucket, so the buckets sum to
// the profile's total:
//
//   - runtime.gc_self_s: the runtime frames at the leaf end of the stack include a
//     garbage-collector function (background marking, assists, sweeping);
//   - runtime.sched_self_s: otherwise, they include a scheduler or channel-handoff
//     function (park, ready, schedule, chansend/chanrecv, semacquire, ...);
//   - <layer>.self_s: otherwise, the innermost cloudybench/internal/<layer> frame
//     names one of the layers below;
//   - other.self_s: everything else (other internal packages, the benchmark's own
//     code, the profiler).

const internalPrefix = "cloudybench/internal/"

// profileLayers are the internal packages that get their own bucket.
var profileLayers = []string{
	"sim", "core", "engine", "node", "storage", "replication", "cluster",
	"check", "cdb", "evaluator", "autoscale", "netsim", "meter", "obs", "chaos",
	"rng",
}

// Buckets are named by the per-layer metric they feed.
const (
	gcBucket    = "runtime.gc_self_s"
	schedBucket = "runtime.sched_self_s"
	otherBucket = "other.self_s"
)

// profileBucketNames lists every bucket, in report order.
func profileBucketNames() []string {
	var names []string
	for _, l := range profileLayers {
		names = append(names, l+".self_s")
	}
	return append(names, gcBucket, schedBucket, otherBucket)
}

var gcFrames = []string{
	"runtime.gc", "runtime.GC", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.scanframeworker", "runtime.greyobject", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.wbBuf", "runtime.(*mheap).reclaim", "runtime.findObject", "runtime.(*gcBits)",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.runq", "runtime.globrunq", "runtime.stealWork",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mPark", "runtime.notesleep",
	"runtime.notewakeup", "runtime.handoffp", "runtime.newproc", "runtime.goexit0", "runtime.goexit1",
	"runtime.gfget", "runtime.gfput", "runtime.casgstatus", "runtime.resetspinning", "runtime.execute",
	"runtime.gogo", "runtime.gosched", "runtime.Gosched", "runtime.chansend", "runtime.chanrecv",
	"runtime.send", "runtime.recv", "runtime.selectgo", "runtime.semacquire", "runtime.semrelease",
	"runtime.lock2", "runtime.unlock2", "runtime.futex", "runtime.usleep", "runtime.osyield",
	"runtime.procyield", "runtime.mstart", "runtime.netpoll", "runtime.checkTimers", "runtime.sysmon",
	"runtime.(*waitq)", "runtime.(*sudog)", "runtime.acquireSudog", "runtime.releaseSudog",
}

func isRuntimeFrame(fn string) bool {
	for _, p := range []string{"runtime.", "internal/runtime/", "runtime/internal/", "sync.", "internal/sync."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// classify returns the bucket of one sample; frames run leaf first.
func classify(frames []string) string {
	leafRuntime := frames
	for i, f := range frames {
		if !isRuntimeFrame(f) {
			leafRuntime = frames[:i]
			break
		}
	}
	for _, f := range leafRuntime {
		if hasAnyPrefix(f, gcFrames) {
			return gcBucket
		}
	}
	for _, f := range leafRuntime {
		if hasAnyPrefix(f, schedFrames) {
			return schedBucket
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, internalPrefix) {
			continue
		}
		layer := f[len(internalPrefix):]
		if i := strings.IndexAny(layer, "./"); i >= 0 {
			layer = layer[:i]
		}
		for _, l := range profileLayers {
			if l == layer {
				return layer + ".self_s"
			}
		}
		return otherBucket
	}
	return otherBucket
}

// profileBuckets decodes a gzipped pprof CPU profile and returns the CPU
// seconds of every bucket.
func profileBuckets(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, b := range profileBucketNames() {
		out[b] = 0
	}
	for _, s := range p.samples {
		if p.valueIdx >= len(s.values) {
			return nil, fmt.Errorf("sample has %d values, want index %d", len(s.values), p.valueIdx)
		}
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		out[classify(frames)] += float64(s.values[p.valueIdx]) / 1e9
	}
	return out, nil
}

// The subset of profile.proto the buckets need.
type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
	valueIdx int // index of the cpu/nanoseconds value
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	var sampleTypes [][2]int64
	err := walkFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			err := walkFields(data, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s profSample
			err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, d); err != nil {
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
			var id uint64
			var funcs []uint64
			err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIdx = len(sampleTypes) - 1
	for i, vt := range sampleTypes {
		if vt[0] >= 0 && vt[0] < int64(len(p.strings)) && p.strings[vt[0]] == "cpu" {
			p.valueIdx = i
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// walkFields calls fn for every field of a protobuf message: v carries a
// varint (or fixed) value, data a length-delimited payload.
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data) or not (v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
