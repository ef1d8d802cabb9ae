package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/switchd"
)

const (
	liveAgents    = 2    // one connection per core of the 2-core reference box
	liveTableCap  = 4096 // rules per agent, LRU eviction
	liveRing      = 2 * liveTableCap
	framesPerFlow = 4 // one miss, three buffered behind its buffer_id
	liveFrameSize = 60
	flowDeadline  = 2 * time.Second
	setupRounds   = 10 // set-ups per run, each followed by an equal slice of the timed phase
	liveWindow    = 500 * time.Millisecond
	hostPort      = 1 // where frames are injected
	egressPort    = 2 // where the route sends them
	tidController = 100
	flowComplete  = 1<<framesPerFlow - 1
)

// generator drives one agent closed-loop: it injects a flow's frames back
// to back and waits until all of them have left the egress port before
// starting the next. Flows cycle through a ring twice the table size, so
// each flow's rule has been evicted by the time the flow comes round again
// and every flow misses.
type generator struct {
	agent *switchd.Agent
	ring  [][]byte // liveRing flows × framesPerFlow frames, flow-major
	next  int      // ring position of the next flow
	tid   int

	mu     sync.Mutex
	cur    [][]byte // the outstanding flow's frames
	seen   uint8    // bit i set once cur[i] egressed
	doneAt time.Time
	dups   int64
	stray  int64
	done   chan struct{} // signalled when the outstanding flow completes

	timer *time.Timer
}

// onEgress is the agent's transmit callback. It runs on agent goroutines.
func (g *generator) onEgress(port uint16, frame []byte) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if port == egressPort {
		for i, f := range g.cur {
			if !bytes.Equal(f, frame) {
				continue
			}
			bit := uint8(1) << i
			if g.seen&bit != 0 {
				g.dups++
				return
			}
			g.seen |= bit
			if g.seen == flowComplete {
				g.doneAt = now
				select { // never blocks: one completion per flow, drained by runFlow
				case g.done <- struct{}{}:
				default:
				}
			}
			return
		}
	}
	g.stray++
}

// flowResult is one flow's fate.
type flowResult struct {
	latency   time.Duration
	delivered int // frames egressed once
	end       time.Time
}

// runFlow injects the next flow of the ring and waits for it.
func (g *generator) runFlow(tr *tracer, id int64) (flowResult, error) {
	k := g.next % liveRing
	g.next++
	frames := g.ring[k*framesPerFlow : (k+1)*framesPerFlow]
	g.mu.Lock()
	g.cur, g.seen = frames, 0
	g.mu.Unlock()

	start := time.Now()
	prev := start
	for i, f := range frames {
		if err := g.agent.InjectFrame(hostPort, f); err != nil {
			return flowResult{}, err
		}
		if tr != nil {
			now := time.Now()
			name := "switchd.inject_buffered"
			if i == 0 {
				name = "switchd.inject_miss"
			}
			tr.record(name, g.tid, id, prev, now)
			prev = now
		}
	}
	g.timer.Reset(flowDeadline)
	select {
	case <-g.done:
		g.timer.Stop()
	case <-g.timer.C:
	}
	g.mu.Lock()
	seen, doneAt := g.seen, g.doneAt
	g.cur = nil // no completion can be signalled from here on
	g.mu.Unlock()
	select { // drop a completion that raced the deadline
	case <-g.done:
	default:
	}
	r := flowResult{delivered: bits.OnesCount8(seen), end: time.Now()}
	if seen == flowComplete {
		r.latency, r.end = doneAt.Sub(start), doneAt
		tr.record("flow", g.tid, id, start, doneAt)
	}
	return r, nil
}

// liveRig is one controller with its connected, table-filled agents.
type liveRig struct {
	srv     *controller.Server
	gens    []*generator
	ctlSeen *atomic.Int64 // control bytes both ways, traced runs only
	fill    int64         // flows run to fill the tables
	fillBad int64         // fill frames not delivered exactly once
}

// timedApp wraps the controller application to time each decision.
type timedApp struct {
	inner controller.App
	tr    *tracer
}

func (a *timedApp) Name() string { return a.inner.Name() }

func (a *timedApp) HandlePacketIn(pi *openflow.PacketIn, xid uint32) ([]openflow.Message, error) {
	start := time.Now()
	out, err := a.inner.HandlePacketIn(pi, xid)
	a.tr.record("controller.app", tidController, -1, start, time.Now())
	return out, err
}

// countingListener counts control-channel bytes on accepted connections.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// liveRings builds each agent's flow ring: distinct minimum-size UDP flows
// from pktgen, in a seed-chosen order.
func liveRings(seed int64) ([][][]byte, error) {
	rings := make([][][]byte, liveAgents)
	for a := range rings {
		sched, err := pktgen.InterleavedBursts(pktgen.Config{
			FrameSize: liveFrameSize,
			RateMbps:  100,
			SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
			DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
			DstIP:     netip.MustParseAddr("10.0.0.2"),
			Seed:      seed,
		}, liveRing, framesPerFlow, 1)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed*liveAgents + int64(a)))
		ring := make([][]byte, 0, len(sched))
		for _, f := range rng.Perm(liveRing) {
			for _, e := range sched[f*framesPerFlow : (f+1)*framesPerFlow] {
				ring = append(ring, e.Frame)
			}
		}
		rings[a] = ring
	}
	return rings, nil
}

// setupLive listens, connects the agents, waits for the flow-granularity
// config to arrive over the wire, and fills every table to capacity.
func setupLive(rings [][][]byte, tr *tracer) (rig *liveRig, err error) {
	fwd, err := controller.NewReactiveForwarder(controller.ForwarderConfig{Routes: []controller.Route{
		{Prefix: netip.MustParsePrefix("10.0.0.0/16"), Port: egressPort},
		{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Port: hostPort},
	}})
	if err != nil {
		return nil, err
	}
	rig = &liveRig{}
	var app controller.App = fwd
	if tr != nil {
		app = &timedApp{inner: fwd, tr: tr}
	}
	rig.srv, err = controller.NewServer(controller.ServerConfig{
		Buffer: &openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 100},
	}, app)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		rig.ctlSeen = new(atomic.Int64)
		rig.srv.ServeListener(countingListener{ln, rig.ctlSeen})
	} else if err := rig.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	for i := 0; i < liveAgents; i++ {
		a, err := switchd.NewAgent(switchd.AgentConfig{Datapath: switchd.Config{
			DatapathID:     uint64(i + 1),
			NumPorts:       2,
			TableCapacity:  liveTableCap,
			EvictionPolicy: flowtable.EvictLRU,
			Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
			BufferCapacity: 256,
		}})
		if err != nil {
			return nil, err
		}
		g := &generator{agent: a, ring: rings[i], tid: i + 1, done: make(chan struct{}, 1)}
		g.timer = time.NewTimer(flowDeadline)
		g.timer.Stop()
		a.SetTransmit(g.onEgress)
		rig.gens = append(rig.gens, g)
		if err := a.Connect(rig.srv.Addr()); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, g := range rig.gens {
		for g.agent.BufferGranularity() != openflow.GranularityFlow {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("flow-granularity config never reached agent %d", g.tid)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	err = rig.drive(func(g *generator) bool { return g.next < liveTableCap }, nil, func(r flowResult) {
		rig.fill++
		rig.fillBad += framesPerFlow - int64(r.delivered)
	})
	if err != nil {
		return nil, err
	}
	for _, g := range rig.gens {
		if n := g.agent.TableLen(); n != liveTableCap {
			return nil, fmt.Errorf("agent %d table holds %d rules after the fill, want %d", g.tid, n, liveTableCap)
		}
	}
	return rig, nil
}

// drive runs every generator on its own goroutine while more(g) holds and
// hands each finished flow to done, serialized.
func (rig *liveRig) drive(more func(*generator) bool, tr *tracer, done func(flowResult)) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		ids   atomic.Int64
	)
	for _, g := range rig.gens {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			for more(g) {
				r, err := g.runFlow(tr, ids.Add(1))
				mu.Lock()
				if err != nil {
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				done(r)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return first
}

// close stops the agents, then the controller, and waits for both.
func (rig *liveRig) close() {
	for _, g := range rig.gens {
		_ = g.agent.Close() // teardown: the rig is discarded either way
	}
	_ = rig.srv.Close()
}

// runLive is the live-flows workload. After an untimed warm-up it builds
// setupRounds rigs one after another, timing each set-up, and runs an equal
// slice of the timed phase on each. A rig's throughput settles at a level
// of its own that can sit ±15% from another rig's, so spreading the timed
// phase over several rigs keeps one rig from setting the result.
func runLive(cfg runConfig, m *measure) (*outcome, error) {
	rings, err := liveRings(cfg.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{}

	rig, err := setupLive(rings, nil)
	if err != nil {
		return nil, err
	}
	warmEnd := time.Now().Add(cfg.warmup)
	err = rig.drive(func(*generator) bool { return time.Now().Before(warmEnd) }, nil, func(flowResult) {})
	rig.close()
	if err != nil {
		return nil, err
	}

	var life liveCounters
	for i := 0; i < setupRounds; i++ {
		ticks := machineTicks()
		start := time.Now()
		rig, err := setupLive(rings, m.tr)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		o.setupSteal = append(o.setupSteal, machineTicks().stealShare(ticks))
		if rig.fillBad > 0 {
			o.problem("table fill: %d frames not delivered exactly once", rig.fillBad)
		}
		err = rig.timedSlice(cfg.seconds/setupRounds, m, o, &life)
		rig.close()
		if err != nil {
			return nil, err
		}
		life.addDatapath(rig)
	}
	o.counters = life.metrics(o.frames, m.tr)
	return o, nil
}

// timedSlice runs the rig's generators closed-loop for d as one segment of
// the timed phase, appending its windows to o.
func (rig *liveRig) timedSlice(d time.Duration, m *measure, o *outcome, life *liveCounters) error {
	stopSampler := make(chan struct{})
	samplerDone := make(chan int)
	go func() { samplerDone <- sampleQueues(rig.srv, m.tr != nil, stopSampler) }()
	defer func() {
		close(stopSampler)
		life.queueMax = max(life.queueMax, <-samplerDone)
	}()
	st0 := rig.srv.Stats()
	var ctl0 int64
	if rig.ctlSeen != nil {
		ctl0 = rig.ctlSeen.Load()
	}

	if err := m.begin(); err != nil {
		return err
	}
	start := time.Now()
	end := start.Add(d)
	ws := make([]window, max(1, int(d/liveWindow)))
	stopSteal := make(chan struct{})
	stealDone := make(chan []cpuTicks)
	go func() { stealDone <- sampleTicks(start, len(ws)-1, stopSteal) }()
	err := rig.drive(func(*generator) bool { return time.Now().Before(end) }, m.tr, func(r flowResult) {
		life.timedFlows++
		o.attempted += framesPerFlow
		o.frames += int64(r.delivered)
		o.failed += framesPerFlow - int64(r.delivered)
		w := &ws[min(int(r.end.Sub(start)/liveWindow), len(ws)-1)]
		w.frames += int64(r.delivered)
		if r.delivered == framesPerFlow {
			w.lat.add(float64(r.latency.Nanoseconds())/1e3, 1)
		}
	})
	close(stopSteal)
	ticks := append(<-stealDone, machineTicks())
	elapsed := time.Since(start)
	if merr := m.end(); err == nil {
		err = merr
	}
	if err != nil {
		return err
	}
	for i := range ws {
		ws[i].wall = liveWindow
		if i+1 < len(ticks) {
			ws[i].steal = ticks[i+1].stealShare(ticks[i])
		}
	}
	// The last window also holds the flows still in flight at the deadline.
	ws[len(ws)-1].wall = elapsed - time.Duration(len(ws)-1)*liveWindow
	o.windows = append(o.windows, ws...)

	st := rig.srv.Stats()
	life.ctlMsgs += st.MsgsIn + st.MsgsOut - st0.MsgsIn - st0.MsgsOut
	life.shed += st.Shed - st0.Shed
	if rig.ctlSeen != nil {
		life.ctlBytes += rig.ctlSeen.Load() - ctl0
	}
	// Server health: flow_mods are never shed, so a shed or evicted
	// connection shows up as missing frames; these counters must stay zero.
	if n := st.StallEvictions + st.WriteErrors + st.HandshakeTimeouts + st.KeepaliveEvictions + st.FramingErrors; n > 0 {
		o.problem("controller evicted connections: %+v", st)
	}
	for _, g := range rig.gens {
		g.mu.Lock()
		bad := g.dups + g.stray
		if bad > 0 {
			o.failed += bad
			o.problem("agent %d: %d duplicate and %d unexpected egress frames", g.tid, g.dups, g.stray)
		}
		g.mu.Unlock()
	}
	return nil
}

// liveCounters sums the per-layer counters over a run's rigs.
type liveCounters struct {
	timedFlows, lifeFlows int64
	ctlMsgs, shed         uint64
	ctlBytes              int64
	queueMax              int
	agents                int
	rx, misses            uint64
	packetIns, fallbacks  uint64
	rerequests, installs  uint64
	evictions, resident   uint64
}

// addDatapath adds a closed rig's whole-life datapath counters: the fill
// and the timed flows run the same stationary loop.
func (l *liveCounters) addDatapath(rig *liveRig) {
	l.lifeFlows += rig.fill
	for _, g := range rig.gens {
		rx, _, _, _, misses := g.agent.Stats()
		l.rx += rx
		l.misses += misses
		dp := g.agent.Datapath()
		ms := dp.Mechanism().Stats(0)
		l.packetIns += ms.PacketIns
		l.fallbacks += ms.DroppedNoBuffer
		l.rerequests += ms.Rerequests
		tm := dp.TableMgmt()
		l.installs += tm.Installs
		l.evictions += tm.RemovedEvict
		l.resident += uint64(tm.Active)
		l.agents++
	}
}

func (l *liveCounters) metrics(frames int64, tr *tracer) map[string]float64 {
	perFrame := func(v float64) float64 { return v / float64(frames) }
	perFlow := func(v uint64) float64 { return float64(v) / float64(l.lifeFlows+l.timedFlows) }
	return map[string]float64{
		"openflow.ctrl_msgs_per_frame":  perFrame(float64(l.ctlMsgs)),
		"openflow.ctrl_bytes_per_frame": perFrame(float64(l.ctlBytes)),
		"core.packet_ins_per_flow":      perFlow(l.packetIns),
		"core.fallbacks_per_flow":       perFlow(l.fallbacks),
		"core.rerequests_per_flow":      perFlow(l.rerequests),
		"flowtable.installs_per_flow":   perFlow(l.installs),
		// The fill stops exactly at capacity, so only timed flows evict.
		"flowtable.evictions_per_flow": float64(l.evictions) / float64(l.timedFlows),
		"flowtable.rules_resident":     float64(l.resident) / float64(l.agents),
		"switchd.miss_frac":            float64(l.misses) / float64(l.rx),
		"controller.shed":              float64(l.shed),
		"controller.queue_len_max":     float64(l.queueMax),
		"switchd.inject_miss_ns":       tr.meanNs("switchd.inject_miss"),
		"switchd.inject_buffered_ns":   tr.meanNs("switchd.inject_buffered"),
		"controller.app_ns":            tr.meanNs("controller.app"),
	}
}

// sampleTicks reads the machine's CPU counters at start and at the first n
// window boundaries after it, stopping early when stop closes.
func sampleTicks(start time.Time, n int, stop <-chan struct{}) []cpuTicks {
	out := []cpuTicks{machineTicks()}
	for k := 1; k <= n; k++ {
		t := time.NewTimer(time.Until(start.Add(time.Duration(k) * liveWindow)))
		select {
		case <-stop:
			t.Stop()
			return out
		case <-t.C:
			out = append(out, machineTicks())
		}
	}
	return out
}

// sampleQueues reports the deepest per-connection outbound queue seen
// until stop closes. Untraced runs skip the sampling and report 0.
func sampleQueues(srv *controller.Server, enabled bool, stop <-chan struct{}) int {
	max := 0
	if !enabled {
		<-stop
		return 0
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return max
		case <-t.C:
			for _, c := range srv.Conns() {
				if c.QueueLen > max {
					max = c.QueueLen
				}
			}
		}
	}
}
