package main

import (
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric and fixes its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd is what every untraced run prints, for every workload.
var endToEnd = []metricSpec{
	{"frames_per_s", "frames/s"},
	{"flow_p50_us", "us"},
	{"flow_p99_us", "us"},
	{"alloc_bytes_per_frame", "B/frame"},
	{"allocs_per_frame", "allocs/frame"},
	{"setup_s", "s"},
}

// layers are the internal packages the traced run attributes CPU and
// allocation to. tablemgmt, chaos and experiments are left out on purpose:
// every workload keeps them off or bypasses them.
var layers = []string{
	"sim", "netem", "switchd", "flowtable", "core", "openflow", "controller",
	"packet", "pktgen", "capture", "telemetry", "metrics", "testbed", "topo",
}

// Buckets for profile samples no measured layer owns.
const (
	bucketGC    = "runtime_gc"    // background GC workers, sweeper, scavenger
	bucketBench = "bench"         // the benchmark's own code
	bucketOther = "runtime_other" // scheduler, netpoller, syscalls with no owner above them
)

// foldBuckets lists every bucket a profile sample can be charged to.
func foldBuckets() []string {
	return append(append([]string{}, layers...), bucketGC, bucketBench, bucketOther)
}

// perLayer is what every traced run prints, for every workload.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, b := range foldBuckets() {
		out = append(out,
			metricSpec{b + ".cpu_ns_per_frame", "ns/frame"},
			metricSpec{b + ".alloc_bytes_per_frame", "B/frame"})
	}
	return append(out,
		metricSpec{"process.cpu_ns_per_frame", "ns/frame"},
		metricSpec{"process.profile_coverage", "ratio"},
		metricSpec{"sim.events_per_frame", "events/frame"},
		metricSpec{"openflow.ctrl_msgs_per_frame", "msgs/frame"},
		metricSpec{"openflow.ctrl_bytes_per_frame", "B/frame"},
		metricSpec{"core.packet_ins_per_flow", "msgs/flow"},
		metricSpec{"core.fallbacks_per_flow", "count/flow"},
		metricSpec{"core.rerequests_per_flow", "msgs/flow"},
		metricSpec{"flowtable.installs_per_flow", "rules/flow"},
		metricSpec{"flowtable.evictions_per_flow", "rules/flow"},
		metricSpec{"flowtable.rules_resident", "rules"},
		metricSpec{"switchd.miss_frac", "ratio"},
		metricSpec{"controller.shed", "msgs"},
		metricSpec{"controller.queue_len_max", "msgs"},
		metricSpec{"runtime_gc.cycles_per_s", "1/s"},
		metricSpec{"pktgen.generate_ns", "ns/cell"},
		metricSpec{"testbed.build_ns", "ns/cell"},
		metricSpec{"testbed.run_ns_per_frame", "ns/frame"},
		metricSpec{"switchd.inject_miss_ns", "ns"},
		metricSpec{"switchd.inject_buffered_ns", "ns"},
		metricSpec{"controller.app_ns", "ns"},
		metricSpec{"bench.frames_per_s", "frames/s"},
		metricSpec{"bench.flow_samples", "count"},
		metricSpec{"bench.first_half_frames_per_s", "frames/s"},
		metricSpec{"bench.second_half_frames_per_s", "frames/s"},
	)
}()

// sample is one latency observation standing for weight flows.
type sample struct {
	value  float64
	weight int64
}

// latencies collects weighted latency samples.
type latencies []sample

func (l *latencies) add(v float64, weight int64) { *l = append(*l, sample{v, weight}) }

// count reports the number of flows the samples stand for.
func (l latencies) count() int64 {
	var n int64
	for _, s := range l {
		n += s.weight
	}
	return n
}

// percentile reports the nearest-rank q-quantile (0 < q ≤ 1) of the
// weighted samples: the smallest value at or below which at least q of the
// total weight lies. It sorts the receiver.
func (l latencies) percentile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	sort.Slice(l, func(i, j int) bool { return l[i].value < l[j].value })
	rank := q * float64(l.count())
	var cum int64
	for _, s := range l {
		cum += s.weight
		if float64(cum) >= rank {
			return s.value
		}
	}
	return l[len(l)-1].value
}

// window is one slice of a timed phase: the frames delivered in it, its
// wall length, the latencies of the flows that completed in it, and the
// share of the machine's CPU time the hypervisor stole meanwhile.
type window struct {
	frames int64
	wall   time.Duration
	lat    latencies
	steal  float64
}

func (w *window) rate() float64 { return float64(w.frames) / w.wall.Seconds() }

// summary is the end-to-end view of a timed phase: the median over its
// cleanest windows (see cleanest) of each window's frame rate and
// flow-latency percentiles. Medians over windows keep a burst of outside
// load in one window from moving the result.
type summary struct {
	rate, p50, p99 float64
	halves         [2]float64 // median rate of the first and second half of the used windows
	flows          int64      // over all windows
	used           int        // windows summarized
}

func summarize(ws []window) summary {
	var s summary
	steal := make([]float64, len(ws))
	for i := range ws {
		steal[i] = ws[i].steal
		s.flows += ws[i].lat.count()
	}
	var rates, p50s, p99s []float64
	for _, i := range cleanest(steal) {
		w := &ws[i]
		rates = append(rates, w.rate())
		if len(w.lat) > 0 {
			p50s = append(p50s, w.lat.percentile(0.50))
			p99s = append(p99s, w.lat.percentile(0.99))
		}
	}
	s.used = len(rates)
	s.rate, s.p50, s.p99 = median(rates), median(p50s), median(p99s)
	if n := len(rates) / 2; n > 0 {
		s.halves = [2]float64{median(rates[:n]), median(rates[len(rates)-n:])}
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf reports the median of the picked values.
func medianOf(xs []float64, pick []int) float64 {
	sel := make([]float64, 0, len(pick))
	for _, i := range pick {
		sel = append(sel, xs[i])
	}
	return median(sel)
}
