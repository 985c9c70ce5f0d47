// Command perfbench is the DCLUE simulator benchmark. It runs one named
// workload through the public simulator API for a fixed host-time budget,
// checks the simulated outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host wall time, set-up
// time, simulated seconds per host second, peak RSS). With -trace 1 the run
// alternates plain and CPU-profiled instances and reports the per-layer
// host-time ledger and work counts instead. See README.md.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance stamps every record.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seconds    int    `json:"seconds"`
}

// minPlain is the least number of instances in an untraced run, so the
// output checks compare repetitions and the medians have a middle.
const minPlain = 3

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	traceOn := flag.Int("trace", 0, "1 adds CPU-profiled instances and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for exports and records")
	golden := flag.String("golden", "", "fig06 golden table that sweep-observed must reproduce at seed 1")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	chk := &checker{first: map[string]simResult{}, fp: map[string]uint64{}}
	if w.sweep && *seed == 1 {
		b, err := os.ReadFile(*golden)
		if err != nil {
			fatal(fmt.Errorf("sweep-observed at seed 1 needs the fig06 golden table: %w", err))
		}
		chk.golden = string(b)
	}

	prov := provenance{
		Workload: w.name, Seed: *seed, Trace: *traceOn == 1,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"), Seconds: *seconds,
	}
	if prov.Commit == "" {
		prov.Commit = "unknown"
	}
	fmt.Printf("perfbench workload=%s seed=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		prov.Workload, prov.Seed, prov.Trace, prov.Nproc, prov.GOMAXPROCS, prov.GoVersion, prov.Commit)

	e := &env{seed: *seed, out: *out, spans: newSpans()}
	r, err := measure(e, w, time.Duration(*seconds)*time.Second, prov.Trace, chk)
	if err != nil {
		fatal(err)
	}

	metrics := endToEnd(r)
	if prov.Trace {
		metrics = perLayer(r, chk)
		if err := e.spans.writeJSONL(filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))); err != nil {
			fatal(err)
		}
	}
	res := result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}
	printSummary(r, chk, metrics)
	if err := writeRecord(*out, prov, res, r, chk); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal reports an error of the environment and exits without a result.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runs holds every instance of one benchmark run.
type runs struct {
	plain  []instance // timing source for the end-to-end metrics
	traced []instance // CPU-profiled instances (-trace 1 only)
	ledger *ledger
	sweep  bool
}

// measure runs instances of w until the budget is spent and at least
// minPlain instances have run. Traced runs alternate plain and profiled
// instances, at least one of each, so the work counts of both can be
// compared and the profiler's overhead measured. Every instance starts
// after a garbage collection, so none pays for its predecessor's garbage.
func measure(e *env, w *workload, budget time.Duration, traced bool, chk *checker) (*runs, error) {
	r := &runs{ledger: newLedger(), sweep: w.sweep}
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(r.plain) >= minPlain
		if traced {
			enough = len(r.plain) >= 1 && len(r.traced) >= 1
		}
		if enough && time.Since(start) >= budget {
			return r, nil
		}
		runtime.GC()
		profile := traced && i%2 == 1
		var buf bytes.Buffer
		if profile {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, err
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		in, err := w.run(e)
		runtime.ReadMemStats(&ms1)
		if profile {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, err
		}
		in.gcCycles = ms1.NumGC - ms0.NumGC
		in.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		chk.check(in, r.sweep)
		if profile {
			if err := r.ledger.add(buf.Bytes()); err != nil {
				return nil, err
			}
			r.traced = append(r.traced, in)
		} else {
			r.plain = append(r.plain, in)
		}
	}
}

// checker applies the output checks. Every simulation is one operation; it
// fails on an error or panic, on zero commits, or when its fingerprint or
// work counts differ from an earlier simulation of the same configuration
// in this process, traced or not. In sweep-observed each rendered table is
// one more operation, failing unless it matches the golden table (seed 1)
// or, at other seeds, the first repetition.
type checker struct {
	first     map[string]simResult
	fp        map[string]uint64
	golden    string
	table     string
	attempted int
	failed    int
	problems  []string
}

func (c *checker) fail(msg string) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, msg)
	}
}

func (c *checker) check(in instance, sweep bool) {
	for _, r := range in.sims {
		c.attempted++
		if msg := c.problem(r); msg != "" {
			c.fail(msg)
		}
	}
	if !sweep {
		return
	}
	c.attempted++
	if c.table == "" {
		c.table = in.table
	}
	switch {
	case c.golden != "" && in.table != c.golden:
		c.fail("fig06 table differs from fig06.golden")
	case in.table != c.table:
		c.fail("fig06 table differs between repetitions")
	}
}

func (c *checker) problem(r simResult) string {
	if r.err != nil {
		return r.err.Error()
	}
	if r.w.Commits == 0 {
		return r.key + ": no transaction committed"
	}
	fp := r.m.Fingerprint()
	f, ok := c.first[r.key]
	if !ok {
		c.first[r.key], c.fp[r.key] = r, fp
		return ""
	}
	if fp != c.fp[r.key] {
		return fmt.Sprintf("%s: fingerprint %016x differs from %016x", r.key, fp, c.fp[r.key])
	}
	if r.w != f.w {
		return fmt.Sprintf("%s: work counts %+v differ from %+v", r.key, r.w, f.w)
	}
	return ""
}

// median returns the median of f over the instances.
func median(ins []instance, f func(instance) float64) float64 {
	if len(ins) == 0 {
		return 0
	}
	v := make([]float64, len(ins))
	for i, in := range ins {
		v[i] = f(in)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// sum adds f over an instance's simulations.
func sum(in instance, f func(simResult) float64) float64 {
	t := 0.0
	for _, r := range in.sims {
		t += f(r)
	}
	return t
}

// perTxn is a commit-weighted mean of a per-transaction ratio over an
// instance's simulations.
func perTxn(in instance, f func(work) float64) float64 {
	return div(sum(in, func(r simResult) float64 { return f(r.w) * float64(r.w.Commits) }),
		sum(in, func(r simResult) float64 { return float64(r.w.Commits) }))
}

// div is a/b, or 0 when b is 0: a run whose simulations all failed still
// prints a result (with correct false), and JSON has no NaN or Inf.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func wallS(in instance) float64 { return in.wall.Seconds() }

func endToEnd(r *runs) map[string]metric {
	return map[string]metric{
		"wall_s": {median(r.plain, wallS), "s"},
		"setup_s": {median(r.plain, func(in instance) float64 {
			return sum(in, func(s simResult) float64 { return s.setup.Seconds() })
		}), "s"},
		"sim_rate": {median(r.plain, func(in instance) float64 {
			return div(sum(in, func(s simResult) float64 { return s.simSec }),
				sum(in, func(s simResult) float64 { return s.simulate.Seconds() }))
		}), "sim_s/s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perLayer derives the per-layer metrics of a traced run: host shares and
// nanoseconds per unit of work from the CPU-profile ledger, work counts
// from the simulations, and runtime counters per instance.
func perLayer(r *runs, chk *checker) map[string]metric {
	all := append(append([]instance(nil), r.plain...), r.traced...)
	l := r.ledger
	m := map[string]metric{}
	count := func(name string, f func(work) uint64) {
		m[name] = metric{median(all, func(in instance) float64 {
			return sum(in, func(s simResult) float64 { return float64(f(s.w)) })
		}), "count"}
	}
	ratio := func(name string, f func(work) float64) {
		m[name] = metric{median(all, func(in instance) float64 { return perTxn(in, f) }), "ratio"}
	}
	// nsPer charges a layer's profiled CPU time to a unit of its work.
	nsPer := func(name, layer string, f func(work) uint64) {
		units := 0.0
		for _, in := range r.traced {
			units += sum(in, func(s simResult) float64 { return float64(f(s.w)) })
		}
		m[name] = metric{div(float64(l.ns[layer]), units), "ns"}
	}
	for _, layer := range layers {
		m[layer+".host_share"] = metric{l.share(layer), "ratio"}
	}

	count("sim.events", func(w work) uint64 { return w.Events })
	m["sim.ns_per_event"] = metric{median(r.plain, func(in instance) float64 {
		return div(sum(in, func(s simResult) float64 { return float64(s.simulate.Nanoseconds()) }),
			sum(in, func(s simResult) float64 { return float64(s.w.Events) }))
	}), "ns"}

	count("netsim.pkts_forwarded", func(w work) uint64 { return w.PktsForwarded })
	count("netsim.fwd_drops", func(w work) uint64 { return w.FwdDrops })
	nsPer("netsim.ns_per_pkt", "netsim", func(w work) uint64 { return w.PktsForwarded })
	count("tcp.segs_sent", func(w work) uint64 { return w.SegsSent })
	count("tcp.retransmits", func(w work) uint64 { return w.Retransmits })
	count("tcp.handshakes", func(w work) uint64 { return w.Handshakes })
	nsPer("tcp.ns_per_seg", "tcp", func(w work) uint64 { return w.SegsSent })

	ratio("db.ctl_msgs_per_txn", func(w work) float64 { return w.CtlMsgsPerTxn })
	ratio("db.data_msgs_per_txn", func(w work) float64 { return w.DataMsgsPerTxn })
	ratio("db.buffer_hit_ratio", func(w work) float64 { return w.BufferHitRatio })
	ratio("db.lock_waits_per_txn", func(w work) float64 { return w.LockWaitsPerTxn })
	ratio("disk.reads_per_txn", func(w work) float64 { return w.DiskReadsPerTxn })
	count("tpcc.commits", func(w work) uint64 { return w.Commits })
	m["tpcc.retry_ratio"] = metric{median(all, func(in instance) float64 {
		retries := sum(in, func(s simResult) float64 { return float64(s.w.Retries) })
		attempts := retries + sum(in, func(s simResult) float64 { return float64(s.w.Commits + s.w.Failures) })
		return div(retries, attempts)
	}), "ratio"}

	m["core.setup_ms_per_point"] = metric{median(r.plain, func(in instance) float64 {
		return sum(in, func(s simResult) float64 { return s.setup.Seconds() * 1000 }) / float64(len(in.sims))
	}), "ms"}
	m["runner.points"] = metric{median(all, func(in instance) float64 { return float64(in.points) }), "count"}
	m["runner.probes"] = metric{median(all, func(in instance) float64 { return float64(len(in.sims)) }), "count"}

	m["obs.export_s"] = metric{median(r.plain, func(in instance) float64 { return in.exportS }), "s"}
	m["obs.export_mb"] = metric{median(all, func(in instance) float64 { return float64(in.exportBytes) / (1 << 20) }), "MB"}

	m["runtime.gc_cycles"] = metric{median(r.plain, func(in instance) float64 { return float64(in.gcCycles) }), "count"}
	m["runtime.alloc_mb_per_sim_s"] = metric{median(r.plain, func(in instance) float64 {
		return float64(in.allocBytes) / (1 << 20) / sum(in, func(s simResult) float64 { return s.simSec })
	}), "MB/sim_s"}

	m["trace_overhead"] = metric{median(r.traced, wallS)/median(r.plain, wallS) - 1, "ratio"}
	m["fail_ratio"] = metric{float64(chk.failed) / float64(chk.attempted), "ratio"}
	return m
}

// printSummary prints the simulated outputs (for byte-for-byte comparison
// between commits) and every metric by name with its unit.
func printSummary(r *runs, chk *checker, metrics map[string]metric) {
	fmt.Printf("instances: %d plain, %d profiled; operations: %d attempted, %d failed\n",
		len(r.plain), len(r.traced), chk.attempted, chk.failed)
	for _, set := range [][]instance{r.plain, r.traced} {
		for _, in := range set {
			fmt.Printf("%.3fs ", in.wall.Seconds())
		}
		fmt.Println("instance wall times")
	}
	for _, p := range chk.problems {
		fmt.Println("FAIL:", p)
	}
	if r.sweep {
		fmt.Print(chk.table)
		h := fnv.New64a()
		h.Write([]byte(chk.table))
		fmt.Printf("fig06 table fingerprint=%016x\n", h.Sum64())
	} else if s, ok := chk.first["cluster"]; ok {
		fmt.Printf("cluster fingerprint=%016x tpmC=%.4f p99=%.4fms commits=%d events=%d pkts=%d segs=%d\n",
			chk.fp["cluster"], s.m.TpmC, s.m.RespTimeP99Ms, s.w.Commits, s.w.Events, s.w.PktsForwarded, s.w.SegsSent)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-30s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// writeRecord writes the run's provenance, result, per-configuration
// fingerprints and work counts as one JSON file in dir.
func writeRecord(dir string, prov provenance, res result, r *runs, chk *checker) error {
	type cfg struct {
		Fingerprint string `json:"fingerprint"`
		Work        work   `json:"work"`
	}
	rec := struct {
		provenance
		result
		Problems       []string       `json:"problems,omitempty"`
		Plain          int            `json:"plain_instances"`
		Profiled       int            `json:"profiled_instances"`
		Configurations map[string]cfg `json:"configurations"`
		Table          string         `json:"table,omitempty"`
	}{provenance: prov, result: res, Problems: chk.problems,
		Plain: len(r.plain), Profiled: len(r.traced), Configurations: map[string]cfg{}, Table: chk.table}
	for k, s := range chk.first {
		rec.Configurations[k] = cfg{fmt.Sprintf("%016x", chk.fp[k]), s.w}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := "plain"
	if prov.Trace {
		mode = "traced"
	}
	name := fmt.Sprintf("record-%s-seed%d-%s.json", prov.Workload, prov.Seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
