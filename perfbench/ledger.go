package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The host-time ledger: a CPU profile of the traced runs, decoded with a
// minimal reader of the pprof protocol buffer, with every sample charged to
// one layer of the simulator.

// frame is one function on a sampled stack.
type frame struct{ fn, file string }

// sample is one profile sample: its stack, leaf first, its count and the
// CPU nanoseconds it stands for.
type sample struct {
	stack []frame
	n, ns int64
}

// layers are the ledger's buckets in report order. bucketOf returns one of
// them for every stack, so their shares sum to 1.
var layers = []string{
	"sim.calendar", "sim.proc", "netsim", "tcp", "platform", "db", "tpcc",
	"disk", "iscsi", "ftp", "core", "runner", "obs", "model.other",
	"runtime.gc", "runtime.sched", "runtime.other",
}

// layerOfPkg maps a dclue/internal package to its ledger layer. Packages
// not listed (experiments, faults, recovery, ...) land in model.other;
// stats and rng are utilities and are charged to the layer that called them.
var layerOfPkg = map[string]string{
	"netsim": "netsim", "tcp": "tcp", "platform": "platform", "db": "db",
	"tpcc": "tpcc", "disk": "disk", "iscsi": "iscsi", "ftp": "ftp",
	"core": "core", "runner": "runner", "trace": "obs", "telemetry": "obs",
}

// simProcFiles are the kernel files holding processes and their blocking
// primitives; the rest of internal/sim is the event calendar.
var simProcFiles = map[string]bool{"proc.go": true, "mailbox.go": true, "resource.go": true}

// schedFuncs are the runtime scheduler and its OS waits: goroutine parking,
// the search for runnable work and idle threads.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.stopm": true,
	"runtime.startm": true, "runtime.park_m": true, "runtime.mcall": true,
	"runtime.gopark": true, "runtime.goexit0": true, "runtime.wakep": true,
	"runtime.stealWork": true, "runtime.runqgrab": true, "runtime.futex": true,
	"runtime.futexsleep": true, "runtime.futexwakeup": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.usleep": true, "runtime.osyield": true,
	"runtime.exitsyscall": true, "runtime.entersyscall": true,
}

// bucketOf charges a stack (leaf first) to the layer of its leaf-most
// dclue/internal frame, so runtime work a layer causes (channel hand-offs,
// allocation) counts toward that layer. A stack with no model frame is
// garbage collection, the scheduler, or other runtime work.
func bucketOf(stack []frame) string {
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f.fn, "dclue/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		switch pkg {
		case "stats", "rng":
			continue
		case "sim":
			if simProcFiles[path.Base(f.file)] {
				return "sim.proc"
			}
			return "sim.calendar"
		}
		if l, ok := layerOfPkg[pkg]; ok {
			return l
		}
		return "model.other"
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "runtime.gc") || f.fn == "runtime.bgsweep" ||
			f.fn == "runtime.bgscavenge" || f.fn == "runtime._GC" {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if schedFuncs[f.fn] {
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// ledger accumulates samples and CPU nanoseconds per layer over any number
// of profiles.
type ledger struct {
	counts map[string]int64
	ns     map[string]int64
	total  int64
}

func newLedger() *ledger { return &ledger{counts: map[string]int64{}, ns: map[string]int64{}} }

// add decodes one gzip'd CPU profile and charges its samples.
func (l *ledger) add(profile []byte) error {
	ss, err := decodeProfile(profile)
	if err != nil {
		return err
	}
	for _, s := range ss {
		b := bucketOf(s.stack)
		l.counts[b] += s.n
		l.ns[b] += s.ns
		l.total += s.n
	}
	return nil
}

// share returns the layer's fraction of all samples (0 with no samples).
func (l *ledger) share(layer string) float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.counts[layer]) / float64(l.total)
}

// decodeProfile parses a gzip-compressed pprof profile.proto as written by
// runtime/pprof for a CPU profile, keeping each sample's values (count,
// CPU nanoseconds) and its stack of function and file names.
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64][2]uint64{}
	)
	err = fields(raw, func(num int, typ uint64, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, typ uint64, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = uints(s.locs, typ, v, b)
				case 2:
					s.vals, err = uints(s.vals, typ, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, typ uint64, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; inlined callees come before their callers
					return fields(b, func(num int, typ uint64, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name, file uint64
			err := fields(b, func(num int, typ uint64, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			fnName[id] = [2]uint64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		var stack []frame
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				nf := fnName[fid]
				stack = append(stack, frame{fn: str(nf[0]), file: str(nf[1])})
			}
		}
		out = append(out, sample{stack: stack, n: int64(s.vals[0]), ns: int64(s.vals[1])})
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protocol buffer")

// fields walks one protocol-buffer message, calling fn with each field's
// number and wire type, and its value (varint and fixed types) or payload
// (length-delimited).
func fields(b []byte, fn func(num int, typ uint64, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, typ, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated varint field, packed (wire type 2) or not.
func uints(dst []uint64, typ uint64, v uint64, b []byte) ([]uint64, error) {
	if typ != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
