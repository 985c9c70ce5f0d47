package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protocol-buffer writer for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) { b.Write(binary.AppendUvarint(nil, v)) }

func (b *pb) uint(num int, v uint64) {
	b.varint(uint64(num) << 3)
	b.varint(v)
}

func (b *pb) msg(num int, p []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}

func (b *pb) packed(num int, vs ...uint64) {
	var in pb
	for _, v := range vs {
		in.varint(v)
	}
	b.msg(num, in.Bytes())
}

// synthProfile encodes a gzip'd CPU profile. Each stack lists locations
// leaf first; each location lists its functions, inlined callee first.
// Stacks alternate packed and unpacked repeated fields, as runtime/pprof
// may write either.
func synthProfile(t *testing.T, stacks [][][]string, counts []int64) []byte {
	t.Helper()
	var prof pb
	strs := []string{""}
	strIdx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	fnID := map[string]uint64{}
	var locID uint64
	for si, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			var l pb
			l.uint(1, locID)
			for _, fn := range loc {
				id, ok := fnID[fn]
				if !ok {
					id = uint64(len(fnID) + 1)
					fnID[fn] = id
					file := "x.go"
					switch fn {
					case "dclue/internal/sim.(*Proc).park":
						file = "/src/dclue/internal/sim/proc.go"
					case "dclue/internal/sim.(*Sim).run":
						file = "/src/dclue/internal/sim/kernel.go"
					}
					var f pb
					f.uint(1, id)
					f.uint(2, str(fn))
					f.uint(4, str(file))
					prof.msg(5, f.Bytes())
				}
				var line pb
				line.uint(1, id)
				l.msg(4, line.Bytes())
			}
			prof.msg(4, l.Bytes())
			locs = append(locs, locID)
		}
		var s pb
		vals := []uint64{uint64(counts[si]), uint64(counts[si]) * 10_000_000}
		if si%2 == 0 {
			s.packed(1, locs...)
			s.packed(2, vals...)
		} else {
			for _, id := range locs {
				s.uint(1, id)
			}
			for _, v := range vals {
				s.uint(2, v)
			}
		}
		prof.msg(2, s.Bytes())
	}
	for _, s := range strs {
		prof.msg(6, []byte(s))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func one(fns ...string) [][]string {
	out := make([][]string, len(fns))
	for i, f := range fns {
		out[i] = []string{f}
	}
	return out
}

func TestLedgerBucketsSyntheticProfile(t *testing.T) {
	stacks := [][][]string{
		// A channel hand-off inside a process switch: the runtime leaf is
		// charged to the kernel's process layer.
		one("runtime.chanrecv", "dclue/internal/sim.(*Proc).park", "dclue/internal/db.(*GCS).fetch"),
		// A background GC worker has no model frame.
		one("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"),
		// An idle thread parked in the scheduler.
		one("runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"),
		// Runtime work with no model frame and no scheduler frame.
		one("runtime.memmove", "main.main"),
		// A utility inlined into its caller is charged to the caller.
		{{"runtime.mallocgc"}, {"dclue/internal/stats.(*Histogram).Add", "dclue/internal/core.(*Cluster).terminal"}},
		// Allocation in a model layer counts toward that layer.
		one("runtime.mallocgc", "dclue/internal/netsim.(*Link).transmit", "dclue/internal/sim.(*Sim).run"),
	}
	counts := []int64{3, 2, 4, 1, 5, 6}
	l := newLedger()
	if err := l.add(synthProfile(t, stacks, counts)); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"sim.proc": 3, "runtime.gc": 2, "runtime.sched": 4,
		"runtime.other": 1, "core": 5, "netsim": 6,
	}
	if l.total != 21 {
		t.Fatalf("total samples = %d, want 21", l.total)
	}
	sum := 0.0
	for _, layer := range layers {
		if got := l.counts[layer]; got != want[layer] {
			t.Errorf("%s: %d samples, want %d", layer, got, want[layer])
		}
		if got, w := l.ns[layer], want[layer]*10_000_000; got != w {
			t.Errorf("%s: %d ns, want %d", layer, got, w)
		}
		sum += l.share(layer)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestBucketOfSplitsKernel(t *testing.T) {
	for _, tc := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"dclue/internal/sim.(*Sim).siftDown", "/src/dclue/internal/sim/kernel.go"}}, "sim.calendar"},
		{[]frame{{"dclue/internal/sim.(*Mailbox).Recv", "/src/dclue/internal/sim/mailbox.go"}}, "sim.proc"},
		{[]frame{{"dclue/internal/sim.(*Resource).Acquire", "/src/dclue/internal/sim/resource.go"}}, "sim.proc"},
		{[]frame{{"dclue/internal/trace.(*Run).Gauge", "trace.go"}}, "obs"},
		{[]frame{{"dclue/internal/telemetry.(*LinkTel).OnTransmit", "telemetry.go"}}, "obs"},
		{[]frame{{"dclue/internal/experiments.Fig6", "figs_scaling.go"}}, "model.other"},
		{[]frame{{"dclue/internal/rng.(*Stream).Float64", "rng.go"}}, "runtime.other"},
		{[]frame{{"runtime._GC", ""}}, "runtime.gc"},
		{nil, "runtime.other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted non-gzip input")
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write([]byte{0x12, 0x05, 0x01}) // length 5, one byte of payload
	zw.Close()
	if _, err := decodeProfile(out.Bytes()); err == nil {
		t.Error("decodeProfile accepted a truncated message")
	}
}
