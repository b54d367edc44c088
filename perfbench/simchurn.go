package main

import (
	"math/rand"
	"sort"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
	"hypercube/internal/rtt"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
)

// sim-churn: scN nodes (b=16, d=4) with every maintenance layer on, as
// internal/nemesis configures them. After a 3 s warm-up, scEpochs epochs
// each admit a wave of scJoins joiners through three established
// gateways, then let one member leave gracefully, each waited for as
// nemesis waits, then idle for scGap. A burst of scCrashes crashes
// follows, and the network settles in scRound steps until it is
// consistent. Faults stay inside nemesis's envelope: the crashes are
// under 15% of the membership, no join or leave is in flight when they
// happen, and every gateway is an established member. Leaves come before
// the crashes because a leave whose holder has just crashed waits out the
// whole resend schedule (about 31 virtual seconds).
const (
	scN         = 128
	scEpochs    = 8
	scJoins     = 8
	scCrashes   = 6
	scWarmup    = 3 * time.Second
	scSync      = 500 * time.Millisecond
	scGap       = 500 * time.Millisecond
	scRound     = 100 * time.Millisecond
	scMaxWait   = 100 // rounds of scRound
	scMaxSettle = 600 // rounds of scRound
	scObjects   = 200
	scLookups   = 100000
)

var scParams = id.Params{B: 16, D: 4}

func scConfig(seed int64, sink obs.Sink) overlay.Config {
	return overlay.Config{
		Params:  scParams,
		Latency: overlay.HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, seed),
		Opts: core.Options{
			Timeouts: core.Timeouts{
				RetryAfter:  500 * time.Millisecond,
				MaxAttempts: 6,
				RepairAfter: 600 * time.Millisecond,
			},
			Guard: &guard.Policy{},
		},
		Liveness: &liveness.Config{
			ProbeInterval:      250 * time.Millisecond,
			ProbeTimeout:       time.Second,
			SuspectAfter:       4,
			IndirectProbes:     3,
			ConfirmRounds:      4,
			PartitionThreshold: 0.3,
		},
		RTT:          &rtt.Config{MinRTO: 100 * time.Millisecond, MaxRTO: 5 * time.Second},
		AntiEntropy:  &antientropy.Config{Interval: scSync},
		Sampling:     &sampling.Config{ViewSize: 16, Interval: scSync, Seed: seed},
		TickInterval: 100 * time.Millisecond,
		Sink:         sink,
	}
}

// scCycle is one cycle's timings.
type scCycle struct {
	setup, joinWall, repairWall, vsec, verify, heapMB, allocKB float64
	epochWall, epochCPU, lookupRates                           []float64 // per epoch, per lookup batch
}

// scResult carries one cycle's counts, identical on every cycle.
type scResult struct {
	lat                          []float64
	joins, joinNoti, sent, bytes int
	sentByType                   [msg.NumTypes + 1]int
	vsec                         float64
	convergeMS                   []float64
	delivered, events            uint64
	nodeVsec                     float64 // node-seconds of virtual time in the churn phase
	probes, aeRounds, smRounds   int
	declared, suspects           int
	rejected                     int
	hops, lookups, hopsMax       int
}

// add accumulates another cycle's counts.
func (r *scResult) add(o scResult) {
	r.lat = append(r.lat, o.lat...)
	r.joins += o.joins
	r.joinNoti += o.joinNoti
	r.sent += o.sent
	r.bytes += o.bytes
	for t := range r.sentByType {
		r.sentByType[t] += o.sentByType[t]
	}
	r.vsec += o.vsec
	r.convergeMS = append(r.convergeMS, o.convergeMS...)
	r.delivered += o.delivered
	r.events += o.events
	r.nodeVsec += o.nodeVsec
	r.probes += o.probes
	r.aeRounds += o.aeRounds
	r.smRounds += o.smRounds
	r.declared += o.declared
	r.suspects += o.suspects
	r.rejected += o.rejected
	r.hops += o.hops
	r.lookups += o.lookups
	r.hopsMax = max(r.hopsMax, o.hopsMax)
}

// runSimChurn runs cycles on four inputs in turn (see inputsPerRun) and
// checks every output on every cycle.
func runSimChurn(o opts) *report {
	rep := newReport()
	var cycles, traced []scCycle
	var res scResult
	var measuring time.Time
	for c := 0; moreCycles(c, measuring, o.seconds); c++ {
		oc := o
		oc.seed = cycleSeed(o.seed, c, inputsPerRun)
		oc.tr = nil
		cy, r := simChurnCycle(oc, rep, nil)
		if c < inputsPerRun {
			res.add(r)
		}
		if c == 0 {
			measuring = time.Now()
		} else {
			cycles = append(cycles, cy)
			if o.tr != nil {
				oc.tr = o.tr
				tcy, _ := simChurnCycle(oc, rep, nil)
				o.tr.setPhase("")
				traced = append(traced, tcy)
			}
		}
	}
	pick := func(f func(scCycle) float64) float64 {
		xs := make([]float64, len(cycles))
		for i, c := range cycles {
			xs[i] = f(c)
		}
		return median(xs)
	}
	joins := float64(res.joins)
	rep.e2e["setup_s"] = pick(func(c scCycle) float64 { return c.setup })
	var joinRates, joinCPU, lookupRates []float64
	for _, c := range cycles {
		for i, w := range c.epochWall {
			joinRates = append(joinRates, scJoins/w)
			joinCPU = append(joinCPU, 1000*c.epochCPU[i]/scJoins)
		}
		lookupRates = append(lookupRates, c.lookupRates...)
	}
	rep.extra["joins_per_s"] = median(joinRates)
	rep.extra["cpu_ms_per_join"] = median(joinCPU)
	rep.e2e["join_p50_ms"] = median(res.lat)
	rep.extra["join_tail_ms"] = tail(res.lat)
	rep.extra["joinnoti_per_join"] = float64(res.joinNoti) / joins
	rep.e2e["runtime.alloc_kb_per_join"] = pick(func(c scCycle) float64 { return c.allocKB })
	rep.e2e["msgs_per_join"] = float64(res.sent) / joins
	rep.e2e["bytes_per_join"] = float64(res.bytes) / joins
	rep.extra["lookups_per_s"] = median(lookupRates)
	rep.e2e["lookup_hops"] = float64(res.hops) / float64(res.lookups)
	rep.extra["verify_s"] = pick(func(c scCycle) float64 { return c.verify })
	rep.e2e["peak_heap_mb"] = pick(func(c scCycle) float64 { return c.heapMB })
	rep.extra["vsec_per_s"] = pick(func(c scCycle) float64 { return c.vsec / (c.joinWall + c.repairWall) })
	rep.extra["msgs_per_node_vsec"] = float64(res.delivered) / res.nodeVsec
	rep.extra["converge_ms"] = median(res.convergeMS)
	rep.infof("cycles: 1 warm-up + %d measured; %d joins, %.1f virtual s and %d events over %d inputs (tail = p%.1f)",
		len(cycles), res.joins, res.vsec, res.events, inputsPerRun, 100*(1-10/joins))

	if tr := o.tr; tr != nil && len(traced) > 0 {
		l := rep.layer
		n, vsec := 0.0, 0.0
		for _, c := range traced {
			n += float64(len(c.epochWall) * scJoins)
			vsec += c.vsec
		}
		cpu := func(cs []scCycle) []float64 {
			xs := make([]float64, len(cs))
			for i, c := range cs {
				xs[i] = sum(c.epochCPU) / float64(len(c.epochCPU)*scJoins)
			}
			return xs
		}
		l["trace.overhead_pct"] = overheadPct(cpu(cycles), cpu(traced))
		l["overlay.build_s"] = median(tr.durations("overlay.BuildDirect"))
		l["overlay.run_s"] = sum(tr.durations("overlay.RunFor")) / float64(len(traced))
		l["sim.events"] = float64(res.events) / inputsPerRun
		l["sim.events_per_s"] = l["sim.events"] / l["overlay.run_s"]
		for _, layer := range []string{"core", "guard", "table", "id", "msg", "sim", "overlay"} {
			l[layer+".self_ms_per_join"] = 1000 * tr.self("join", layer) / n
		}
		for _, layer := range []string{"liveness", "rtt", "antientropy", "sampling", "core", "sim", "overlay"} {
			l[layer+".self_ms_per_vsec"] = 1000 * (tr.self("join", layer) + tr.self("repair", layer)) / vsec
		}
		l["runtime.gc_ms_per_join"] = 1000 * tr.runtime["join"].gcCPU / n
		for _, t := range joinTypes {
			l["core.sent_per_join."+t.String()] = float64(res.sentByType[t]) / joins
		}
		l["guard.rejected"] = float64(res.rejected)
		l["netcheck.self_s"] = tr.self("repair", "netcheck") / float64(len(traced))
		l["dht.lookup_us"] = 1e6 * mean(tr.durations("dht.Lookup"))
		nl := float64(scLookups * len(traced))
		l["dht.self_us_per_lookup"] = 1e6 * tr.self("lookup", "dht") / nl
		l["table.self_us_per_lookup"] = 1e6 * tr.self("lookup", "table") / nl
		l["dht.hops_max"] = float64(res.hopsMax)
		l["liveness.probes_per_node_vsec"] = float64(res.probes) / res.nodeVsec
		l["antientropy.rounds_per_node_vsec"] = float64(res.aeRounds) / res.nodeVsec
		l["sampling.rounds_per_node_vsec"] = float64(res.smRounds) / res.nodeVsec
		l["liveness.declared"] = float64(res.declared)
		l["liveness.suspects"] = float64(res.suspects)
		// Resends and give-ups are visible only as events; count them on
		// one more round of the inputs with a counting sink, outside the
		// profile.
		tr.setPhase("")
		sink := &kindCounter{}
		for c := 0; c < inputsPerRun; c++ {
			simChurnCycle(opts{seed: cycleSeed(o.seed, c, inputsPerRun)}, newReport(), sink)
		}
		l["core.resends"] = float64(sink.resends)
		l["core.give_ups"] = float64(sink.giveUps)
	}
	return rep
}

// kindCounter counts the machine's resend and give-up events.
type kindCounter struct{ resends, giveUps int }

func (k *kindCounter) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindResend:
		k.resends++
	case obs.KindGiveUp:
		k.giveUps++
	}
}

// churnState is the benchmark's own view of the membership.
type churnState struct {
	net      *overlay.Network
	members  []table.Ref // established, sorted by ID
	leaving  map[id.ID]bool
	pending  []*core.Machine
	joiners  []*core.Machine
	crashed  []id.ID
	leaves   int
	admitted int
}

func contains(refs []table.Ref, x id.ID) bool {
	for _, r := range refs {
		if r.ID == x {
			return true
		}
	}
	return false
}

func (s *churnState) drop(x id.ID) {
	for i, m := range s.members {
		if m.ID == x {
			s.members = append(s.members[:i], s.members[i+1:]...)
			return
		}
	}
}

// pick returns a random member satisfying ok.
func (s *churnState) pick(rng *rand.Rand, ok func(table.Ref) bool) (table.Ref, bool) {
	var cand []table.Ref
	for _, m := range s.members {
		if ok(m) {
			cand = append(cand, m)
		}
	}
	if len(cand) == 0 {
		return table.Ref{}, false
	}
	return cand[rng.Intn(len(cand))], true
}

// admit promotes joiners that reached in_system to members and reports
// whether none is left pending.
func (s *churnState) admit() bool {
	var still []*core.Machine
	for _, m := range s.pending {
		if m.IsSNode() {
			s.members = append(s.members, m.Self())
			s.admitted++
		} else {
			still = append(still, m)
		}
	}
	s.pending = still
	sort.Slice(s.members, func(i, j int) bool { return s.members[i].ID.Less(s.members[j].ID) })
	return len(s.pending) == 0
}

// finalize unregisters completed leaves and reports whether none is left.
func (s *churnState) finalize() bool {
	for _, x := range s.net.FinalizeLeaves() {
		delete(s.leaving, x)
	}
	return len(s.leaving) == 0
}

func simChurnCycle(o opts, rep *report, sink obs.Sink) (scCycle, scResult) {
	tr := o.tr
	var cy scCycle
	var res scResult
	p := scParams

	resetPeakHeap()
	tr.setPhase("build")
	rng := rand.New(rand.NewSource(o.seed))
	taken := make(map[id.ID]bool)
	refs := overlay.RandomRefs(p, scN, rng, taken)
	sw := startWatch()
	net := overlay.New(scConfig(o.seed, sink))
	h := tr.begin("overlay.BuildDirect")
	net.BuildDirect(refs, rng)
	tr.end(h)
	h = tr.begin("overlay.RunFor")
	res.events = net.RunFor(scWarmup)
	tr.end(h)
	cy.setup, _ = sw.stop()

	s := &churnState{net: net, members: append([]table.Ref(nil), refs...), leaving: map[id.ID]bool{}}
	sort.Slice(s.members, func(i, j int) bool { return s.members[i].ID.Less(s.members[j].ID) })
	runFor := func(d time.Duration) {
		v0 := net.Engine().Now()
		h := tr.begin("overlay.RunFor")
		res.events += net.RunFor(d)
		tr.end(h)
		res.nodeVsec += float64(net.Size()) * (net.Engine().Now() - v0).Seconds()
	}
	t0 := net.Engine().Now()
	delivered0 := net.Delivered()
	traffic0 := net.AggregateTraffic()
	live0, ae0, sm0 := net.LivenessStats(), net.AntiEntropyStats(), net.SamplingStats()

	tr.setPhase("join")
	sw = startWatch()
	for e := 0; e < scEpochs; e++ {
		esw := startWatch()
		// A join wave through three established gateways, then one
		// graceful leave, each waited for as nemesis waits for them.
		var gws []table.Ref
		for len(gws) < 3 {
			g, ok := s.pick(rng, func(m table.Ref) bool { return !contains(gws, m.ID) })
			if !ok {
				break
			}
			gws = append(gws, g)
		}
		at := net.Engine().Now() + 100*time.Millisecond
		for k, ref := range overlay.RandomRefs(p, scJoins, rng, taken) {
			m := net.ScheduleJoin(ref, gws[k%len(gws)], at, gws[(k+1)%len(gws)], gws[(k+2)%len(gws)])
			s.pending = append(s.pending, m)
			s.joiners = append(s.joiners, m)
		}
		for r := 0; r < scMaxWait && !s.admit(); r++ {
			runFor(scRound)
		}
		w, c := esw.stop()
		cy.epochWall = append(cy.epochWall, w)
		cy.epochCPU = append(cy.epochCPU, c)
		if leaver, ok := s.pick(rng, func(table.Ref) bool { return true }); ok {
			if err := net.ScheduleLeave(leaver.ID, net.Engine().Now()+50*time.Millisecond); err != nil {
				rep.fail("sim-churn: leave of %v: %v", leaver.ID, err)
			}
			s.leaving[leaver.ID] = true
			s.drop(leaver.ID)
			s.leaves++
		}
		for r := 0; r < scMaxWait && !s.finalize(); r++ {
			runFor(scRound)
		}
		runFor(scGap)
	}
	cy.joinWall, _ = sw.stop()
	cy.allocKB = sw.allocKB() / float64(len(cy.epochWall)*scJoins)
	traffic := net.AggregateTraffic()
	for _, t := range msg.Types() {
		res.sentByType[t] = traffic.SentOf(t) - traffic0.SentOf(t)
	}
	for _, t := range joinTypes {
		res.sent += res.sentByType[t]
	}
	res.bytes = traffic.BytesSent - traffic0.BytesSent
	for _, r := range net.JoinsSince(t0) {
		res.lat = append(res.lat, ms(r.Ended-r.Started))
	}

	// A burst of crashes, then rounds until the network is consistent:
	// each finalizes leaves, admits joiners and checks Definition 3.8
	// with netcheck, as nemesis's settle loop does.
	tr.setPhase("repair")
	sw = startWatch()
	for k := 0; k < scCrashes; k++ {
		victim, ok := s.pick(rng, func(table.Ref) bool { return true })
		if !ok {
			break
		}
		if err := net.InjectFailure(victim.ID); err != nil {
			rep.fail("sim-churn: crash of %v: %v", victim.ID, err)
		}
		s.drop(victim.ID)
		s.crashed = append(s.crashed, victim.ID)
	}
	lastFault := net.Engine().Now()
	converged := false
	for r := 0; r < scMaxSettle && !converged; r++ {
		runFor(scRound)
		s.finalize()
		s.admit()
		h := tr.begin("netcheck.CheckConsistency")
		converged = len(net.CheckConsistency()) == 0 && len(s.pending) == 0 && len(s.leaving) == 0
		tr.end(h)
	}
	cy.repairWall, _ = sw.stop()
	res.convergeMS = []float64{ms(net.Engine().Now() - lastFault)}
	res.vsec = (net.Engine().Now() - t0).Seconds()
	cy.vsec = res.vsec
	res.delivered = net.Delivered() - delivered0
	live, ae, sm := net.LivenessStats(), net.AntiEntropyStats(), net.SamplingStats()
	res.probes = live.ProbesSent + live.IndirectSent - live0.ProbesSent - live0.IndirectSent
	res.aeRounds = ae.Rounds - ae0.Rounds
	res.smRounds = sm.Rounds - sm0.Rounds
	res.declared = live.Declared - live0.Declared
	res.suspects = live.Suspects - live0.Suspects
	res.rejected = net.GuardStats().Rejected

	// Checks, with leaves finalized first: every joiner admitted
	// (Theorem 2), every leave completed, every crashed node purged from
	// every table, and Definition 3.8 by this program's own checker, all
	// over the membership the benchmark itself tracked.
	tr.setPhase("other")
	if !converged {
		rep.fail("sim-churn: not consistent %d rounds after the crashes", scMaxSettle)
	}
	for _, m := range s.joiners {
		res.joinNoti += m.Counters().SentOf(msg.TJoinNoti)
	}
	res.joins = s.admitted
	rep.op("joins", len(s.joiners), len(s.joiners)-s.admitted)
	if s.admitted != len(s.joiners) {
		rep.fail("sim-churn: %d of %d joiners never in system (Theorem 2)", len(s.joiners)-s.admitted, len(s.joiners))
	}
	rep.op("leaves", s.leaves, len(s.leaving))
	if len(s.leaving) > 0 {
		rep.fail("sim-churn: %d leaves never completed", len(s.leaving))
	}
	members := memberIDs(s.members)
	if !sameMembers(members, net.Members()) {
		rep.fail("sim-churn: the network's members differ from the %d the benchmark admitted and kept", len(members))
	}
	tableOf := simTables(net)
	unrepaired := 0
	for _, dead := range s.crashed {
		for _, x := range members {
			if t, _ := tableOf(x); holds(p, t, dead) {
				unrepaired++
				break
			}
		}
	}
	rep.op("crashes", len(s.crashed), unrepaired)
	if unrepaired > 0 {
		rep.fail("sim-churn: %d crashed nodes still in some table", unrepaired)
	}
	if bad := checkDef38(p, members, tableOf, 5); len(bad) > 0 {
		rep.fail("sim-churn: Definition 3.8 violated: %v", bad)
	}

	tr.setPhase("verify")
	cy.verify = timeVerify(tr, 5, 100*time.Millisecond, func() { net.CheckConsistency() })

	lk := lookupPhase(o, rep, "sim-churn", p, net, members, rng, scObjects, scLookups, true)
	res.hops, res.lookups, res.hopsMax = lk.hops, lk.lookups, lk.hopsMax
	cy.lookupRates, cy.heapMB = lk.rates, lk.heapMB
	return cy, res
}

// holds reports whether the table has x in any entry.
func holds(p id.Params, t *table.Table, x id.ID) bool {
	for i := 0; i < p.D; i++ {
		for j := 0; j < p.B; j++ {
			if t.Get(i, j).ID == x {
				return true
			}
		}
	}
	return false
}

// timeVerify times repeated Definition 3.8 passes, at least minPasses of
// them and at least minTime in all, and returns the median pass.
func timeVerify(tr *tracer, minPasses int, minTime time.Duration, check func()) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < minPasses || time.Since(start) < minTime {
		h := tr.begin("netcheck.CheckConsistency")
		t0 := time.Now()
		check()
		xs = append(xs, time.Since(t0).Seconds())
		tr.end(h)
	}
	return median(xs)
}
