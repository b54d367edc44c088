package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/table"
	"hypercube/internal/transport/tcptransport"
)

// tcp-grow: a loopback cluster with liveness probing on, nodes and
// protocol options as cmd/hypercubed starts them by default (b=16, d=4
// here). A seed node and tgBoot nodes joined one at a time make the
// set-up; then one client starts a node and joins it through a random
// in-system member, one join after another (closed loop), until tgNodes
// nodes are in. The cluster then idles for tgIdle while its CPU is
// measured, and is shut down.
const (
	tgNodes   = 128
	tgBoot    = 8
	tgIdle    = 500 * time.Millisecond
	tgObjects = 1000
	tgLookups = 4000
	tgPoll    = 100 * time.Microsecond
	tgWindow  = 16 // joins per throughput sample
	tgTimeout = 20 * time.Second
	// tgInputs is how many distinct inputs a run cycles through. The
	// message counts of a 128-node cluster vary with its IDs and with
	// timing, so they are pooled over every measured cycle, each on a
	// different input as far as the run goes.
	tgInputs = 16
)

var tgParams = id.Params{B: 16, D: 4}

func tgOptions() (core.Options, []tcptransport.Option) {
	return core.Options{Timeouts: core.Timeouts{RetryAfter: 2 * time.Second}, Guard: &guard.Policy{}},
		[]tcptransport.Option{tcptransport.WithLiveness(liveness.Config{})}
}

type tgCycle struct {
	setup, idleCPU, verify, heapMB, allocKB float64
	cpuPerJoin                              float64 // process CPU ms per join over the join phase
	lat                                     []float64
	joinRates, joinCPU                      []float64 // per window of tgWindow joins
	lookupRates                             []float64
	joins, counted, joinNoti, sent, bytes   int
	sentByType                              [msg.NumTypes + 1]int
	converge, goroutines                    float64
	hops, lookups, hopsMax                  int
	retried, dropped, rejected              int
}

// runTCPGrow runs cycles on tgInputs inputs in turn, checking every
// output on every cycle. Join latencies, throughput windows, lookup
// batches and message counts are pooled over the measured cycles; the
// other figures are medians over them.
func runTCPGrow(o opts) *report {
	rep := newReport()
	var cycles, traced []tgCycle
	var measuring time.Time
	for c := 0; moreCycles(c, measuring, o.seconds); c++ {
		oc := o
		oc.seed = cycleSeed(o.seed, c, tgInputs)
		oc.tr = nil
		cy := tcpGrowCycle(oc, rep)
		if len(rep.problems) > 0 {
			break // a broken cluster gives no meaningful timings
		}
		if c == 0 {
			measuring = time.Now()
			continue
		}
		cycles = append(cycles, cy)
		if o.tr != nil {
			oc.tr = o.tr
			tcy := tcpGrowCycle(oc, rep)
			o.tr.setPhase("")
			if len(rep.problems) > 0 {
				break
			}
			traced = append(traced, tcy)
		}
	}
	if len(cycles) == 0 {
		return rep
	}
	pick := func(f func(tgCycle) float64) float64 {
		xs := make([]float64, len(cycles))
		for i, c := range cycles {
			xs[i] = f(c)
		}
		return median(xs)
	}
	var lat, joinRates, joinCPU, lookupRates []float64
	for _, c := range cycles {
		lat = append(lat, c.lat...)
		joinRates = append(joinRates, c.joinRates...)
		joinCPU = append(joinCPU, c.joinCPU...)
		lookupRates = append(lookupRates, c.lookupRates...)
	}
	rep.e2e["setup_s"] = pick(func(c tgCycle) float64 { return c.setup })
	rep.extra["joins_per_s"] = median(joinRates)
	rep.extra["cpu_ms_per_join"] = median(joinCPU)
	rep.e2e["join_p50_ms"] = median(lat)
	rep.extra["join_tail_ms"] = tail(lat)
	pooled := func(f func(tgCycle) int) float64 {
		n, joins := 0, 0
		for _, c := range cycles {
			n += f(c)
			joins += c.counted
		}
		return float64(n) / float64(joins)
	}
	rep.extra["joinnoti_per_join"] = pooled(func(c tgCycle) int { return c.joinNoti })
	rep.e2e["runtime.alloc_kb_per_join"] = pick(func(c tgCycle) float64 { return c.allocKB })
	rep.e2e["msgs_per_join"] = pooled(func(c tgCycle) int { return c.sent })
	rep.e2e["bytes_per_join"] = pooled(func(c tgCycle) int { return c.bytes })
	rep.extra["lookups_per_s"] = median(lookupRates)
	hops, lookups := 0, 0
	for _, c := range cycles {
		hops += c.hops
		lookups += c.lookups
	}
	rep.e2e["lookup_hops"] = float64(hops) / float64(lookups)
	rep.extra["verify_s"] = pick(func(c tgCycle) float64 { return c.verify })
	rep.e2e["peak_heap_mb"] = pick(func(c tgCycle) float64 { return c.heapMB })
	rep.extra["converge_ms"] = pick(func(c tgCycle) float64 { return c.converge })
	rep.extra["idle_cpu_ms_per_node_s"] = pick(func(c tgCycle) float64 { return 1000 * c.idleCPU / tgNodes / tgIdle.Seconds() })
	rep.infof("cycles: 1 warm-up + %d measured; %d join latencies (tail = p%.1f)",
		len(cycles), len(lat), 100*(1-10/float64(len(lat))))

	if tr := o.tr; tr != nil && len(traced) > 0 {
		l := rep.layer
		joins := 0.0
		for _, c := range traced {
			joins += float64(c.joins)
		}
		cpu := func(cs []tgCycle) []float64 {
			xs := make([]float64, len(cs))
			for i, c := range cs {
				xs[i] = c.cpuPerJoin
			}
			return xs
		}
		l["trace.overhead_pct"] = overheadPct(cpu(cycles), cpu(traced))
		for _, layer := range []string{"core", "guard", "table", "id", "msg", "tcptransport", "wire", "net"} {
			l[layer+".self_ms_per_join"] = 1000 * tr.self("join", layer) / joins
		}
		l["runtime.gc_ms_per_join"] = 1000 * tr.runtime["join"].gcCPU / joins
		for _, t := range joinTypes {
			l["core.sent_per_join."+t.String()] = pooled(func(c tgCycle) int { return c.sentByType[t] })
		}
		l["guard.rejected"] = pick(func(c tgCycle) float64 { return float64(c.rejected) })
		l["netcheck.self_s"] = tr.self("verify", "netcheck") / float64(len(traced))
		l["dht.lookup_us"] = 1e6 * mean(tr.durations("dht.Lookup"))
		nl := float64(tgLookups * len(traced))
		l["dht.self_us_per_lookup"] = 1e6 * tr.self("lookup", "dht") / nl
		l["table.self_us_per_lookup"] = 1e6 * tr.self("lookup", "table") / nl
		l["dht.hops_max"] = pick(func(c tgCycle) float64 { return float64(c.hopsMax) })
		l["tcptransport.retried"] = pick(func(c tgCycle) float64 { return float64(c.retried) })
		l["tcptransport.dropped"] = pick(func(c tgCycle) float64 { return float64(c.dropped) })
		l["tcptransport.goroutines_per_node"] = pick(func(c tgCycle) float64 { return c.goroutines })
		idle := tgIdle.Seconds() * tgNodes * float64(len(traced))
		l["liveness.self_ms_per_node_s"] = 1000 * tr.self("idle", "liveness") / idle
	}
	return rep
}

// cluster is the set of running nodes of one cycle.
type cluster struct {
	nodes   []*tcptransport.Node // every started node, for shutdown
	members []*tcptransport.Node // in system, gateway candidates
	byID    map[id.ID]*tcptransport.Node
	rng     *rand.Rand
	ids     []id.ID
}

func (c *cluster) close() {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *tcptransport.Node) {
			defer wg.Done()
			n.Close()
		}(n)
	}
	wg.Wait()
}

// join starts node ids[i], joins it through a random member, and polls
// its status until it is in system; it returns the join latency.
func (c *cluster) join(tr *tracer, i int) (float64, error) {
	opts, options := tgOptions()
	gw := c.members[c.rng.Intn(len(c.members))].Ref()
	h := tr.begin("tcptransport.StartJoiner")
	n, err := tcptransport.StartJoiner(tgParams, opts, c.ids[i], "127.0.0.1:0", options...)
	tr.end(h)
	if err != nil {
		return 0, err
	}
	c.nodes = append(c.nodes, n)
	c.byID[n.Ref().ID] = n
	h = tr.begin("tcptransport.Join")
	t0 := time.Now()
	if err := n.Join(gw); err != nil {
		tr.end(h)
		return 0, err
	}
	for n.Status() != core.StatusInSystem {
		if time.Since(t0) > tgTimeout {
			tr.end(h)
			return 0, fmt.Errorf("node %v stuck in %v", n.Ref().ID, n.Status())
		}
		time.Sleep(tgPoll)
	}
	lat := time.Since(t0).Seconds() * 1000
	tr.end(h)
	c.members = append(c.members, n)
	return lat, nil
}

func tcpGrowCycle(o opts, rep *report) tgCycle {
	tr := o.tr
	var cy tgCycle
	p := tgParams
	rng := rand.New(rand.NewSource(o.seed))
	taken := map[id.ID]bool{}
	c := &cluster{byID: map[id.ID]*tcptransport.Node{}, rng: rng}
	for len(c.ids) < tgNodes {
		if x := id.Random(p, rng); !taken[x] {
			taken[x] = true
			c.ids = append(c.ids, x)
		}
	}
	defer c.close()

	resetPeakHeap()
	tr.setPhase("build")
	sw := startWatch()
	opts, options := tgOptions()
	seed, err := tcptransport.StartSeed(p, opts, c.ids[0], "127.0.0.1:0", options...)
	if err != nil {
		rep.fail("tcp-grow: seed: %v", err)
		return cy
	}
	c.nodes = append(c.nodes, seed)
	c.members = append(c.members, seed)
	c.byID[seed.Ref().ID] = seed
	for i := 1; i <= tgBoot; i++ {
		if _, err := c.join(tr, i); err != nil {
			rep.fail("tcp-grow: bootstrap join: %v", err)
			return cy
		}
	}
	cy.setup, _ = sw.stop()

	// Closed loop: one client starts the next node once its previous
	// join completed.
	tr.setPhase("join")
	type stamp struct{ wall, cpu float64 }
	var done []stamp
	var joinErr error
	t0 := time.Now()
	gsw := startWatch()
	for i := tgBoot + 1; i < tgNodes; i++ {
		lat, err := c.join(tr, i)
		if err != nil {
			joinErr = err
			break
		}
		cy.lat = append(cy.lat, lat)
		done = append(done, stamp{time.Since(t0).Seconds(), cpuTime().Seconds()})
	}
	_, cpu := gsw.stop()
	cy.joins = len(cy.lat)
	rep.op("joins", tgNodes-1, tgNodes-1-tgBoot-cy.joins)
	if joinErr != nil {
		rep.fail("tcp-grow: join: %v", joinErr)
		return cy
	}
	cy.allocKB = gsw.allocKB() / float64(cy.joins)
	cy.cpuPerJoin = 1000 * cpu / float64(cy.joins)
	for k := 0; k+tgWindow < len(done); k += tgWindow {
		a, b := done[k], done[k+tgWindow]
		cy.joinRates = append(cy.joinRates, tgWindow/(b.wall-a.wall))
		cy.joinCPU = append(cy.joinCPU, 1000*(b.cpu-a.cpu)/tgWindow)
	}

	// Checks: every node in system (Theorem 2), at most d+1
	// CpRst+JoinWait per joiner (Theorem 3), no retried, dead-lettered
	// or rejected message, and Definition 3.8 by this program's own
	// checker on snapshots polled until it passes.
	tr.setPhase("other")
	members := make([]id.ID, 0, tgNodes)
	for _, n := range c.nodes {
		members = append(members, n.Ref().ID)
		if n.Status() != core.StatusInSystem {
			rep.fail("tcp-grow: node %v in %v after its join (Theorem 2)", n.Ref().ID, n.Status())
		}
		cn := n.Counters()
		if n != seed {
			cy.joinNoti += cn.SentOf(msg.TJoinNoti)
			if s := cn.SentOf(msg.TCpRst) + cn.SentOf(msg.TJoinWait); s > p.D+1 {
				rep.fail("tcp-grow: node %v sent %d CpRst+JoinWait > d+1 (Theorem 3)", n.Ref().ID, s)
			}
		}
		for _, t := range msg.Types() {
			cy.sentByType[t] += cn.SentOf(t)
		}
		cy.bytes += cn.BytesSent
		cy.retried += cn.TotalRetried()
		cy.dropped += cn.TotalDropped()
		cy.rejected += n.GuardStats().Rejected
	}
	for _, t := range joinTypes {
		cy.sent += cy.sentByType[t]
	}
	// Counts cover the whole cluster, so the set-up joins are part of them.
	cy.counted = cy.joins + tgBoot
	if cy.retried+cy.dropped+cy.rejected > 0 {
		rep.fail("tcp-grow: %d retried, %d dropped, %d rejected messages", cy.retried, cy.dropped, cy.rejected)
	}
	t0 = time.Now()
	var tables map[id.ID]*table.Table
	for {
		tables = snapshotTables(tr, c.nodes)
		bad := checkDef38(p, members, func(x id.ID) (*table.Table, bool) {
			t, ok := tables[x]
			return t, ok
		}, 5)
		if len(bad) == 0 {
			break
		}
		if time.Since(t0) > tgTimeout {
			rep.fail("tcp-grow: Definition 3.8 still violated after %v: %v", tgTimeout, bad)
			return cy
		}
		time.Sleep(time.Millisecond)
	}
	cy.converge = time.Since(t0).Seconds() * 1000
	cy.goroutines = float64(runtime.NumGoroutine()) / tgNodes

	tr.setPhase("verify")
	cy.verify = timeVerify(tr, 5, 100*time.Millisecond, func() { netcheck.CheckConsistency(p, tables) })

	tr.setPhase("other")
	lk := lookupPhase(o, rep, "tcp-grow", p, liveTables{c.byID}, members, rng, tgObjects, tgLookups, true)
	cy.hops, cy.lookups, cy.hopsMax = lk.hops, lk.lookups, lk.hopsMax
	cy.lookupRates, cy.heapMB = lk.rates, lk.heapMB

	tr.setPhase("idle")
	sw = startWatch()
	time.Sleep(tgIdle)
	_, cy.idleCPU = sw.stop()
	tr.setPhase("other")
	return cy
}

// snapshotTables copies every node's current table.
func snapshotTables(tr *tracer, nodes []*tcptransport.Node) map[id.ID]*table.Table {
	out := make(map[id.ID]*table.Table, len(nodes))
	for _, n := range nodes {
		h := tr.begin("tcptransport.Snapshot")
		s := n.Snapshot()
		tr.end(h)
		out[n.Ref().ID] = tableFrom(s)
	}
	return out
}

func tableFrom(s table.Snapshot) *table.Table {
	t := table.New(s.Params(), s.Owner())
	s.ForEach(func(level, digit int, nb table.Neighbor) { t.Set(level, digit, nb) })
	return t
}

// liveTables resolves each hop of a DHT walk to the node's current table,
// read through Node.Snapshot while the cluster runs.
type liveTables struct{ byID map[id.ID]*tcptransport.Node }

func (l liveTables) TableOf(x id.ID) (*table.Table, bool) {
	n, ok := l.byID[x]
	if !ok {
		return nil, false
	}
	return tableFrom(n.Snapshot()), true
}
