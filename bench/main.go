// Command bench is hidbd's gated benchmark: four fixed-work workloads,
// seven gated end-to-end metrics (set-up time and six counts), four
// end-to-end timings that are reported but not gated, and a ladder of
// per-layer metrics, every layer measured from outside through its
// public functions. README.md
// in this directory says what each workload and metric is for;
// BENCHMARK.json at the root of the repository is the contract the
// tables below are held to (lockstep_test.go).
//
// Run it from the root of the repository through bench/run.sh, which
// builds it with every Go cache inside the checkout:
//
//	bash bench/run.sh -seed 7              all four workloads, one process each
//	bash bench/run.sh -seed 7 -trace 1     the traced runs: per-layer metrics, span files
//	bash bench/run.sh -check               the whole pipeline at 1/100 size
//	bash bench/run.sh --workload net_read --seed 7 --seconds 10 --trace 0
//
// The last form is the driver's: one workload, one JSON object as the
// last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/durable"
)

// metricDef is one row of BENCHMARK.json. bound is 0 for a per-layer
// metric, which has none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

type workloadDef struct{ name, why string }

const (
	runSeconds = 10                  // BENCHMARK.json's run_seconds, and -seconds' default
	workDir    = ".bench_build/work" // database files live here, inside the checkout
)

var workloads = []workloadDef{
	{"net_read", "GET/NSGET/GETTTL over TCP: proto, server dispatch and client do the work, durable is idle, shards take read locks only"},
	{"net_write", "PUT/DEL/PUTTTL/NSPUT over TCP: coalescer, ApplyBatch, PMA rebalances, one benchmark-started Checkpoint beside each 100k-op slice"},
	{"embed_mixed", "embedded DB, one goroutine, point ops plus 100-item scans and 16-key batches: shard/cobt/hipma only, no proto, server or checkpoint"},
	{"ckpt_sync", "cycles of ApplyBatch, Checkpoint, replica SyncOnce with every shard dirty: durable render/hash/fsync/rename and replica fetch/install"},
}

// endToEnd is what the driver gates. Apart from setup_s, which the
// benchmark contract requires, every row is a count: on the shared
// sandbox the medians of two sets of ten runs of the same code differ
// by up to 29 % on a wall-clock or CPU time (NOISE.md), and a gate
// inside its own noise both admits regressions and fails identical
// code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"disk_bytes_per_live_byte", "ratio", "lower", 0.03},
	{"write_bytes_per_live_byte", "ratio", "lower", 0.03},
	{"fsyncs", "count", "lower", 0.03},
}

// timings are the end-to-end timings. Every gated run measures and
// prints them after the gated rows, for paired comparisons of two
// commits, but they are not in its result line; the traced run reports
// them as the per-layer rows e2e.<name>, which have no bound.
var timings = []metricDef{
	{name: "ops_per_s", unit: "ops/s", better: "higher"},
	{name: "serial_lat_p50_us", unit: "us", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "reopen_s", unit: "s", better: "lower"},
}

// metric is one measured value; the unit comes from the tables.
type metric struct {
	name    string
	value   float64
	samples int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the driver's result line.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all four, one process each)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", runSeconds, "sizes the fixed work: the op counts are those that take this long on the 2-core sandbox")
		trace    = flag.Int("trace", 0, "1: the traced run (a tenth of the op stream with spans, plus the layer ladder) instead of the gated run")
		check    = flag.Bool("check", false, "run the whole pipeline at 1/100 size and check its output against BENCHMARK.json")
		div      = flag.Int("div", 1, "divide every size by this (what -check passes to its children)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *div < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *check:
		err = runCheck(*seed)
	case *workload == "":
		err = runAll(*seed, *seconds, *trace, *div)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1, *div)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics and
// the result line.
func runOne(workload string, seed uint64, seconds int, traced bool, div int) error {
	known := false
	for _, w := range workloads {
		known = known || w.name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("%s-%d", workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{dir: dir, fs: newCountingFS(durable.OS())}

	fmt.Printf("# %s seed=%d seconds=%d trace=%v div=%d GOMAXPROCS=%d %s\n",
		workload, seed, seconds, traced, div, runtime.GOMAXPROCS(0), runtime.Version())
	start := time.Now()
	var (
		p    *pass
		ms   []metric
		defs []metricDef
	)
	reported := len(perLayer) // the first so many rows go into the result line
	if traced {
		defs = perLayer
		p, ms, err = e.traced(newConfig(workload, seed, seconds, div, 10*div), div)
	} else {
		defs = append(append(defs, endToEnd...), timings...)
		reported = len(endToEnd)
		p, ms, err = e.gated(newConfig(workload, seed, seconds, div, div))
	}
	if err != nil {
		return err
	}
	out := outcome{Correct: p.failed == 0, Attempted: p.ops, Failed: p.failed, Metrics: map[string]jsonMetric{}}
	if len(ms) != len(defs) {
		return fmt.Errorf("measured %d metrics, the table has %d", len(ms), len(defs))
	}
	for i, m := range ms {
		if m.name != defs[i].name {
			return fmt.Errorf("metric %d is %q, the table says %q", i, m.name, defs[i].name)
		}
		note := ""
		if i >= reported {
			note = "  (not gated)"
		}
		fmt.Printf("%-34s %16.4f %-6s n=%d%s\n", m.name, m.value, defs[i].unit, m.samples, note)
		if i < reported {
			out.Metrics[m.name] = jsonMetric{m.value, defs[i].unit}
		}
	}
	for _, line := range p.info {
		fmt.Println("#", line)
	}
	fmt.Printf("# attempted=%d failed=%d wall=%.1fs\n", p.ops, p.failed, time.Since(start).Seconds())
	if p.failed > 0 {
		fmt.Println("# first failure:", p.firstErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if p.failed > 0 {
		return fmt.Errorf("%s: %d of %d checks failed", workload, p.failed, p.ops)
	}
	return nil
}

// runChild runs one workload in a fresh process of its own, so that
// no workload inherits another's heap. It passes the child's output
// through and returns its last line, the result.
func runChild(workload string, seed uint64, seconds, trace, div int) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-div", fmt.Sprint(div))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
	err = cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	return lines[len(lines)-1], err
}

// runAll runs all four workloads and fails if any of them does.
func runAll(seed uint64, seconds, trace, div int) error {
	var failed []string
	for _, wl := range workloads {
		if _, err := runChild(wl.name, seed, seconds, trace, div); err != nil {
			failed = append(failed, wl.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %v", failed)
	}
	return nil
}
