// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time and prints, as its last line, a JSON object with the
// workload's end-to-end metrics (untraced run) or its per-layer metrics
// (traced run), plus whether every output checked out.
//
//	bash perfbench/run.sh --workload paper-cells --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-cells and fabric-hits (simulated), live-flows (real
// loopback TCP). See README.md in this directory for what each measures.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// frameRateBound is the share by which a workload's frames/s may differ
// between the two halves of its timed phase before the run is flagged as
// non-stationary. It equals the frames_per_s bound in BENCHMARK.json.
const frameRateBound = 0.25

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(runConfig, *measure) (*outcome, error){
	"paper-cells": func(cfg runConfig, m *measure) (*outcome, error) {
		return runSim(paperCells(cfg.seed), 0, cfg, m)
	},
	"fabric-hits": func(cfg runConfig, m *measure) (*outcome, error) {
		return runSim(fabricCells(cfg.seed), minHitFrac, cfg, m)
	},
	"live-flows": runLive,
}

// warmup is the untimed run of the workload's own work before its set-up:
// runs that start cold read up to a fifth slower.
const warmup = 2 * time.Second

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration // timed phase
	warmup  time.Duration // untimed work of the same kind before set-up
	trace   bool
}

// outcome is what a workload reports about its timed phase.
type outcome struct {
	attempted, failed int64 // frames
	frames            int64 // delivered exactly once
	windows           []window
	setup             []float64 // seconds, one per set-up
	setupSteal        []float64 // steal share during each set-up
	digest            string
	counters          map[string]float64 // exact per-layer counters
	problems          []string
	nProblems         int
}

// problem records a failed check. The first few are kept verbatim.
func (o *outcome) problem(format string, args ...any) {
	o.nProblems++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// measure brackets a workload's timed phase, which may come in several
// segments: wall time, process CPU, heap statistics, machine steal and, in
// traced runs, CPU and allocation profiles, each summed over the segments.
type measure struct {
	tr *tracer // nil in untraced runs

	// Snapshots at the start of the open segment.
	t0     time.Time
	cpu0   time.Duration
	stat0  cpuTicks
	ms0    runtime.MemStats
	prof   bytes.Buffer
	alloc0 map[string]int64

	elapsed       time.Duration
	cpu           time.Duration
	stolen, ticks uint64 // machine CPU ticks stolen, of all ticks
	allocBytes    uint64
	allocs        uint64
	gcCycles      uint32
	cpuByBucket   map[string]int64
	allocByBucket map[string]int64
	profiledCPU   int64
}

// begin opens a timed segment. It collects garbage first so every segment
// starts from the same heap state.
func (m *measure) begin() error {
	runtime.GC()
	if m.tr != nil {
		a, err := allocProfile()
		if err != nil {
			return err
		}
		m.alloc0 = a
		m.prof.Reset()
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = processCPU()
	m.stat0 = machineTicks()
	m.t0 = time.Now()
	return nil
}

// end closes the open segment and adds it to the totals.
func (m *measure) end() error {
	m.elapsed += time.Since(m.t0)
	m.cpu += processCPU() - m.cpu0
	st := machineTicks()
	m.stolen += st.steal - m.stat0.steal
	m.ticks += st.total - m.stat0.total
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBytes := ms.TotalAlloc - m.ms0.TotalAlloc
	m.allocBytes += allocBytes
	m.allocs += ms.Mallocs - m.ms0.Mallocs
	m.gcCycles += ms.NumGC - m.ms0.NumGC
	if m.tr == nil {
		return nil
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(m.prof.Bytes())
	if err != nil {
		return err
	}
	idx, err := p.valueIndex("cpu")
	if err != nil {
		return err
	}
	if m.cpuByBucket == nil {
		m.cpuByBucket = make(map[string]int64)
		m.allocByBucket = make(map[string]int64)
	}
	for b, v := range fold(p, idx) {
		m.cpuByBucket[b] += v
		m.profiledCPU += v
	}
	runtime.GC()
	a, err := allocProfile()
	if err != nil {
		return err
	}
	// The allocation profile samples; scale its per-bucket shares to the
	// exact heap total MemStats counted over the segment.
	var sampled int64
	for b, v := range a {
		sampled += v - m.alloc0[b]
	}
	if sampled > 0 {
		scale := float64(allocBytes) / float64(sampled)
		for b, v := range a {
			m.allocByBucket[b] += int64(float64(v-m.alloc0[b]) * scale)
		}
	}
	return nil
}

// steal reports the share of machine CPU time stolen during the segments.
func (m *measure) steal() float64 {
	if m.ticks == 0 {
		return 0
	}
	return float64(m.stolen) / float64(m.ticks)
}

// allocProfile folds the cumulative heap allocation profile by bucket.
func allocProfile() (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	idx, err := p.valueIndex("alloc_space")
	if err != nil {
		return nil, err
	}
	return fold(p, idx), nil
}

// processCPU reports user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics turns one run into the reported metric set.
func metrics(o *outcome, sum summary, m *measure, trace bool) (map[string]float64, []metricSpec) {
	frames := float64(o.frames)
	perFrame := func(v float64) float64 { return v / frames }
	if !trace {
		return map[string]float64{
			"frames_per_s":          sum.rate,
			"flow_p50_us":           sum.p50,
			"flow_p99_us":           sum.p99,
			"alloc_bytes_per_frame": perFrame(float64(m.allocBytes)),
			"allocs_per_frame":      perFrame(float64(m.allocs)),
			"setup_s":               medianOf(o.setup, cleanest(o.setupSteal)),
		}, endToEnd
	}
	vals := map[string]float64{}
	for _, b := range foldBuckets() {
		vals[b+".cpu_ns_per_frame"] = perFrame(float64(m.cpuByBucket[b]))
		vals[b+".alloc_bytes_per_frame"] = perFrame(float64(m.allocByBucket[b]))
	}
	vals["process.cpu_ns_per_frame"] = perFrame(float64(m.cpu.Nanoseconds()))
	vals["process.profile_coverage"] = float64(m.profiledCPU) / float64(m.cpu.Nanoseconds())
	vals["runtime_gc.cycles_per_s"] = float64(m.gcCycles) / m.elapsed.Seconds()
	vals["bench.frames_per_s"] = sum.rate
	vals["bench.flow_samples"] = float64(sum.flows)
	vals["bench.first_half_frames_per_s"] = sum.halves[0]
	vals["bench.second_half_frames_per_s"] = sum.halves[1]
	for k, v := range o.counters {
		vals[k] = v
	}
	return vals, perLayer
}

func main() {
	workload := flag.String("workload", "", "paper-cells, fabric-hits or live-flows")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where traced runs write Chrome trace JSON")
	flag.Parse()
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  warmup,
		trace:   *trace == 1,
	}
	if err := run(os.Stdout, *workload, cfg, *traceDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one workload and writes the summary line and the JSON
// report to w.
func run(w io.Writer, workload string, cfg runConfig, traceDir string) error {
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("need --seconds > 0")
	}
	trace := cfg.trace
	m := &measure{}
	if trace {
		// Sample allocations finely enough to attribute them per layer.
		runtime.MemProfileRate = 64 << 10
		m.tr = newTracer()
	}
	o, err := drive(cfg, m)
	if err != nil {
		return err
	}
	if o.frames == 0 {
		return fmt.Errorf("%s delivered no frames", workload)
	}
	sum := summarize(o.windows)
	vals, specs := metrics(o, sum, m, trace)
	out := report{
		Correct:   o.failed == 0 && o.nProblems == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}

	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if o.nProblems > len(o.problems) {
		fmt.Fprintf(os.Stderr, "perfbench: %d more failed checks\n", o.nProblems-len(o.problems))
	}
	stationary := "ok"
	if a, b := sum.halves[0], sum.halves[1]; a > 0 && b > 0 && math.Abs(a-b)/math.Max(a, b) > frameRateBound {
		stationary = "FLAGGED"
		fmt.Fprintf(os.Stderr, "perfbench: %s not stationary: %.0f vs %.0f frames/s across halves\n", workload, a, b)
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d cores=%d gomaxprocs=%d trace=%v digest=%s flows=%d windows=%d frames=%d halves=%.0f/%.0f stationarity=%s steal=%.3f windows_used=%d\n",
		workload, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), trace, o.digest, sum.flows, len(o.windows), o.frames,
		sum.halves[0], sum.halves[1], stationary, m.steal(), sum.used)
	if trace {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, cfg.seed))
		if err := m.tr.writeChrome(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "perfbench trace=%s\n", path)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
