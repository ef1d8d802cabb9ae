package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/testbed"
	"sdnbuffer/internal/topo"
)

// series is one buffer configuration of the paper's figures.
type series struct {
	name     string
	buffer   openflow.FlowBufferConfig
	capacity int
}

var (
	noBuffer  = series{"no-buffer", openflow.FlowBufferConfig{Granularity: openflow.GranularityNone}, 256}
	buffer16  = series{"buffer-16", openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}, 16}
	packet256 = series{"packet-granularity-256", openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}, 256}
	flow256   = series{"flow-granularity-256", openflow.FlowBufferConfig{
		Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 50}, 256}
)

// shape is a traffic pattern: it turns frame parameters into a schedule.
type shape struct {
	name string
	gen  func(pktgen.Config) (pktgen.Schedule, error)
}

// The paper's two workloads: §IV 1000 single-packet flows and §V 50 flows
// × 20 packets released in interleaved groups of 5.
var (
	singlePacket = shape{"single-packet", func(c pktgen.Config) (pktgen.Schedule, error) {
		return pktgen.SinglePacketFlows(c, 1000)
	}}
	interleaved = shape{"interleaved", func(c pktgen.Config) (pktgen.Schedule, error) {
		return pktgen.InterleavedBursts(c, 50, 20, 5)
	}}
)

// simCell is one fabric run: a topology, a buffer series, and a schedule.
type simCell struct {
	label   string
	spec    topo.Spec
	series  series
	install topo.InstallMode
	dst     int
	shape   shape
	rate    float64
	seed    int64
}

// paperCells is the Fig. 1 single switch (a one-switch line) under both
// paper shapes, every paper series, and one rate either side of buffer-16's
// exhaustion knee (~30-35 Mbps).
func paperCells(seed int64) []simCell {
	rng := rand.New(rand.NewSource(seed))
	var cells []simCell
	for _, sh := range []shape{singlePacket, interleaved} {
		for _, s := range []series{noBuffer, buffer16, packet256, flow256} {
			for _, rate := range []float64{20, 80} {
				cells = append(cells, simCell{
					label:  fmt.Sprintf("%s/%s/%g", sh.name, s.name, rate),
					spec:   topo.Spec{Kind: topo.KindLine, Switches: 1},
					series: s,
					dst:    1,
					shape:  sh,
					rate:   rate,
					seed:   rng.Int63(),
				})
			}
		}
	}
	return cells
}

// fabricCells sends 8 long flows (500 frames each) from host 0 to a host on
// each other leaf of a 4-leaf, 2-spine fabric with whole-path install, so
// nearly every frame-hop hits an installed rule.
func fabricCells(seed int64) []simCell {
	rng := rand.New(rand.NewSource(seed))
	long := shape{"long-flows", func(c pktgen.Config) (pktgen.Schedule, error) {
		return pktgen.InterleavedBursts(c, 8, 500, 8)
	}}
	var cells []simCell
	for dst := 1; dst <= 3; dst++ {
		cells = append(cells, simCell{
			label:   fmt.Sprintf("leafspine-4x2/host0-host%d", dst),
			spec:    topo.Spec{Kind: topo.KindLeafSpine, Leaves: 4, Spines: 2, Hosts: 4},
			series:  flow256,
			install: topo.InstallPath,
			dst:     dst,
			shape:   long,
			rate:    80,
			seed:    rng.Int63(),
		})
	}
	return cells
}

// minHitFrac is the share of frame-hops fabric-hits must forward from an
// installed rule for the workload to measure the hit path.
const minHitFrac = 0.9

// simRun accumulates one sim workload's passes over its cells.
type simRun struct {
	cells  []simCell
	tr     *tracer
	minHit float64 // 0 disables the hit-path check

	digest     uint64 // of the first pass; every later pass must repeat it
	haveDigest bool
	passes     int
	o          *outcome
	setup      time.Duration // of the pass in progress
	win        window        // of the pass in progress
	counter    simCounters
}

// simCounters sums the public result counters over timed cells.
type simCounters struct {
	cells, switches, flows           int64
	events, ctrlMsgs, ctrlBytes      int64
	packetIns, fallbacks, rerequests uint64
	installs, evictions, resident    uint64
	rx, misses                       uint64
	shed                             uint64
	genNs, buildNs, runNs            int64
}

// pass runs every cell once. timed passes feed the outcome; warm-up passes
// only check the digest.
func (r *simRun) pass(timed bool) error {
	h := fnv.New64a()
	ticks := machineTicks()
	start := time.Now()
	r.setup = 0
	r.win = window{}
	for i, c := range r.cells {
		res, err := r.runCell(i, c, timed)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.label, err)
		}
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%v|%v|%v|%v|%v|%v|%v|%v|%d|%d\n", c.label,
			res.FramesDelivered, res.OrderViolations, res.PacketIns, res.FlowMods, res.PacketOuts, res.RuleInstalls,
			res.CtrlLoadToControllerMbps, res.CtrlLoadToSwitchMbps, res.ControllerUsagePercent,
			res.SwitchUsagePercent, res.FlowSetupDelay.Mean(), res.FlowForwardingDelay.Mean(),
			res.BufferOccupancyMean, res.BufferOccupancyMax, res.Rerequests, res.BufferFallbacks)
	}
	sum := h.Sum64()
	if !r.haveDigest {
		r.digest, r.haveDigest = sum, true
	} else if sum != r.digest {
		r.o.problem("pass %d digest %016x differs from %016x", r.passes, sum, r.digest)
	}
	if timed {
		r.passes++
		r.win.wall = time.Since(start)
		r.win.steal = machineTicks().stealShare(ticks)
		r.o.setup = append(r.o.setup, r.setup.Seconds())
		r.o.setupSteal = append(r.o.setupSteal, r.win.steal)
		r.o.windows = append(r.o.windows, r.win)
	}
	return nil
}

func (r *simRun) runCell(i int, c simCell, timed bool) (*testbed.FabricResult, error) {
	t0 := time.Now()
	g, err := topo.Build(c.spec)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sched, err := c.shape.gen(pktgen.Config{
		FrameSize: 1000,
		RateMbps:  c.rate,
		Jitter:    0.5,
		Seed:      c.seed,
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		DstIP:     g.Hosts()[c.dst].Addr,
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	cfg := testbed.DefaultConfig(c.series.buffer, c.series.capacity)
	cfg.Seed = c.seed
	fb, err := testbed.NewFabric(cfg, testbed.FabricOptions{Graph: g, Install: c.install, DstHost: c.dst})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	res, err := fb.Run(sched)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	r.setup += t3.Sub(t0)
	if !timed {
		return res, nil
	}
	r.tr.record("topo.build", 0, int64(i), t0, t1)
	r.tr.record("pktgen.generate", 0, int64(i), t1, t2)
	r.tr.record("testbed.build", 0, int64(i), t2, t3)
	r.tr.record("testbed.run", 0, int64(i), t3, t4)

	o := r.o
	flows := int64(sched.Flows())
	// Every flow of a cell is in flight for the whole Run call: the cell's
	// wall time is each of its flows' latency.
	r.win.lat.add(float64(t4.Sub(t3).Nanoseconds())/1e3, flows)
	r.win.frames += res.FramesDelivered
	sent := int64(res.FramesSent)
	o.attempted += sent
	o.frames += res.FramesDelivered
	lost := sent - res.FramesDelivered
	if lost < 0 {
		lost = -lost
	}
	// Frames not delivered exactly once count as failed. The other
	// invariants fail the run's correctness without naming frames. Only flow
	// granularity promises in-order delivery; under no-buffer and packet
	// granularity, setup-window reordering is the paper's §V result
	// (DESIGN.md §14) and goes into the digest instead.
	bad := lost + res.DupEmissions + res.Misdelivered
	misordered := c.series.buffer.Granularity == openflow.GranularityFlow && res.OrderViolations != 0
	if bad > sent {
		bad = sent
	}
	o.failed += bad
	if bad > 0 || misordered || res.BufferUnitsLeaked != 0 || res.BufferBytesLeaked != 0 || res.LedgerGap != 0 {
		o.problem("cell %s: sent %d delivered %d dups %d misordered %d misdelivered %d leaked %d units / %d bytes, ledger gap %d",
			c.label, sent, res.FramesDelivered, res.DupEmissions, res.OrderViolations, res.Misdelivered,
			res.BufferUnitsLeaked, res.BufferBytesLeaked, res.LedgerGap)
	}

	k := &r.counter
	k.cells++
	k.switches += int64(res.Switches)
	k.flows += flows
	k.events += int64(fb.Runner().Executed())
	for _, ch := range fb.Capture() {
		up, upBytes := ch.ToController.Total()
		down, downBytes := ch.ToSwitch.Total()
		k.ctrlMsgs += up + down
		k.ctrlBytes += upBytes + downBytes
	}
	k.packetIns += uint64(res.PacketIns)
	k.fallbacks += res.BufferFallbacks
	k.rerequests += res.Rerequests
	k.installs += res.RuleInstalls
	k.evictions += res.RemovedEvict
	k.resident += res.RulesActive
	var cellRx, cellMiss uint64
	for _, sw := range fb.Switches() {
		rx, _, _, _, misses := sw.Datapath().Stats()
		cellRx += rx
		cellMiss += misses
	}
	k.rx += cellRx
	k.misses += cellMiss
	if r.minHit > 0 && cellRx > 0 && 1-float64(cellMiss)/float64(cellRx) < r.minHit {
		o.problem("cell %s: only %.3f of %d frame-hops hit an installed rule (want ≥ %.2f)",
			c.label, 1-float64(cellMiss)/float64(cellRx), cellRx, r.minHit)
	}
	k.shed += res.CtrlShedPacketIns
	k.genNs += t2.Sub(t1).Nanoseconds()
	k.buildNs += t3.Sub(t2).Nanoseconds()
	k.runNs += t4.Sub(t3).Nanoseconds()
	return res, nil
}

// runSim drives a sim workload: whole passes of untimed warm-up, then whole
// passes until the timed phase has lasted cfg.seconds.
func runSim(cells []simCell, minHit float64, cfg runConfig, m *measure) (*outcome, error) {
	o := &outcome{}
	r := &simRun{cells: cells, minHit: minHit, o: o, tr: m.tr}
	warm := time.Now()
	for first := true; first || time.Since(warm) < cfg.warmup; first = false {
		if err := r.pass(false); err != nil {
			return nil, err
		}
	}
	if err := m.begin(); err != nil {
		return nil, err
	}
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		if err := r.pass(true); err != nil {
			return nil, err
		}
	}
	if err := m.end(); err != nil {
		return nil, err
	}
	o.digest = fmt.Sprintf("%016x", r.digest)

	k := r.counter
	perFrame := func(v float64) float64 { return v / float64(o.frames) }
	perFlow := func(v float64) float64 { return v / float64(k.flows) }
	o.counters = map[string]float64{
		"sim.events_per_frame":          perFrame(float64(k.events)),
		"openflow.ctrl_msgs_per_frame":  perFrame(float64(k.ctrlMsgs)),
		"openflow.ctrl_bytes_per_frame": perFrame(float64(k.ctrlBytes)),
		"core.packet_ins_per_flow":      perFlow(float64(k.packetIns)),
		"core.fallbacks_per_flow":       perFlow(float64(k.fallbacks)),
		"core.rerequests_per_flow":      perFlow(float64(k.rerequests)),
		"flowtable.installs_per_flow":   perFlow(float64(k.installs)),
		"flowtable.evictions_per_flow":  perFlow(float64(k.evictions)),
		"flowtable.rules_resident":      float64(k.resident) / float64(k.switches),
		"switchd.miss_frac":             float64(k.misses) / float64(k.rx),
		"controller.shed":               float64(k.shed),
		"pktgen.generate_ns":            float64(k.genNs) / float64(k.cells),
		"testbed.build_ns":              float64(k.buildNs) / float64(k.cells),
		"testbed.run_ns_per_frame":      perFrame(float64(k.runNs)),
	}
	return o, nil
}
