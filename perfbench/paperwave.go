package main

import (
	"math/rand"
	"runtime"
	"time"

	"hypercube/internal/analysis"
	"hypercube/internal/core"
	"hypercube/internal/dht"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
)

// The Figure 15(b) setup: n=7192 existing nodes, m=1000 joins at t=0,
// b=16, d=8, hashed 5–120 ms pair latency. After the wave, pwObjects
// objects are published and pwLookups lookups run from random nodes.
const (
	pwN       = 7192
	pwM       = 1000
	pwObjects = 1000
	pwLookups = 40000
)

var pwParams = id.Params{B: 16, D: 8}

// pwCycle is one build → wave → verify → lookup cycle's timings.
type pwCycle struct {
	setup, waveWall, waveCPU, verify, allocKB float64
	heapMB                                    float64
	lookupRates                               []float64
	events                                    uint64
	vsec                                      float64
	delivered                                 uint64
}

// pwResult carries one cycle's counts, identical on every cycle of the
// same input (the simulator is deterministic).
type pwResult struct {
	records     []overlay.JoinRecord
	traffic     msg.Counters
	lookups     lookupResult
	rejected    int
	joinNoti    int
	joinerSent  int // by the joiners, as overlay.WaveResult counts
	joinerBytes int
}

// runPaperWave runs cycles on four inputs in turn (see inputsPerRun).
// The first round checks every output in full; later cycles replay the
// same inputs and must reproduce the first round's counts exactly.
func runPaperWave(o opts) *report {
	rep := newReport()
	var cycles, traced []pwCycle
	var first []pwResult
	var measuring time.Time
	for c := 0; moreCycles(c, measuring, o.seconds); c++ {
		oc := o
		oc.seed = cycleSeed(o.seed, c, inputsPerRun)
		oc.tr = nil
		var ref *pwResult
		if c >= inputsPerRun {
			ref = &first[c%inputsPerRun]
		}
		cy, res := paperWaveCycle(oc, rep, ref)
		if c < inputsPerRun {
			first = append(first, res)
		}
		if c == 0 {
			rep.infof("input %d alone: JoinNoti %.3f per join; joiners sent %.1f messages and %.0f B per join; %d events",
				oc.seed, float64(res.joinNoti)/pwM, float64(res.joinerSent)/pwM, float64(res.joinerBytes)/pwM, cy.events)
			measuring = time.Now()
		} else {
			cycles = append(cycles, cy)
			if o.tr != nil {
				// The traced twin replays the same input and must
				// reproduce its counts.
				oc.tr = o.tr
				tcy, _ := paperWaveCycle(oc, rep, &res)
				o.tr.setPhase("")
				traced = append(traced, tcy)
			}
		}
		if len(rep.problems) > 0 {
			break
		}
	}

	var lat, rates []float64
	var joinNoti, sent, bytes, hops, lookups, hopsMax, rejected int
	var sentByType [msg.NumTypes + 1]int
	for _, r := range first {
		for _, j := range r.records {
			lat = append(lat, ms(j.Ended-j.Started))
		}
		joinNoti += r.joinNoti
		for _, t := range msg.Types() {
			sentByType[t] += r.traffic.SentOf(t)
		}
		bytes += r.traffic.BytesSent
		hops += r.lookups.hops
		lookups += r.lookups.lookups
		hopsMax = max(hopsMax, r.lookups.hopsMax)
		rejected += r.rejected
	}
	for _, t := range joinTypes {
		sent += sentByType[t]
	}
	for _, c := range cycles {
		rates = append(rates, c.lookupRates...)
	}
	pick := func(f func(pwCycle) float64) float64 {
		xs := make([]float64, len(cycles))
		for i, c := range cycles {
			xs[i] = f(c)
		}
		return median(xs)
	}
	joins := float64(pwM * len(first))
	rep.e2e["setup_s"] = pick(func(c pwCycle) float64 { return c.setup })
	rep.extra["joins_per_s"] = pick(func(c pwCycle) float64 { return pwM / c.waveWall })
	rep.extra["cpu_ms_per_join"] = pick(func(c pwCycle) float64 { return 1000 * c.waveCPU / pwM })
	rep.e2e["join_p50_ms"] = median(lat)
	rep.e2e["runtime.alloc_kb_per_join"] = pick(func(c pwCycle) float64 { return c.allocKB })
	rep.e2e["msgs_per_join"] = float64(sent) / joins
	rep.e2e["bytes_per_join"] = float64(bytes) / joins
	rep.extra["lookups_per_s"] = median(rates)
	rep.e2e["lookup_hops"] = float64(hops) / float64(lookups)
	rep.extra["verify_s"] = pick(func(c pwCycle) float64 { return c.verify })
	rep.e2e["peak_heap_mb"] = pick(func(c pwCycle) float64 { return c.heapMB })
	rep.extra["join_tail_ms"] = tail(lat)
	rep.extra["joinnoti_per_join"] = float64(joinNoti) / joins
	rep.extra["vsec_per_s"] = pick(func(c pwCycle) float64 { return c.vsec / c.waveWall })
	rep.extra["msgs_per_node_vsec"] = pick(func(c pwCycle) float64 { return float64(c.delivered) / (pwN + pwM) / c.vsec })
	rep.extra["converge_ms"] = pick(func(c pwCycle) float64 { return 1000 * c.vsec })
	rep.infof("cycles: 1 warm-up + %d measured; %d join latencies over %d inputs (tail = p%.2f)",
		len(cycles), len(lat), len(first), 100*(1-10.0/float64(len(lat))))
	rep.infof("Theorem 5 bound %.3f, Theorem 4 E(J) %.3f",
		analysis.UpperBoundJoinNoti(pwParams.B, pwParams.D, pwN, pwM), analysis.ExpectedJoinNoti(pwParams.B, pwParams.D, pwN))

	if tr := o.tr; tr != nil && len(traced) > 0 {
		measured := float64(pwM * len(traced))
		cpu := func(cs []pwCycle) []float64 {
			xs := make([]float64, len(cs))
			for i, c := range cs {
				xs[i] = c.waveCPU
			}
			return xs
		}
		l := rep.layer
		l["overlay.build_s"] = median(tr.durations("overlay.BuildDirect"))
		l["overlay.run_s"] = median(tr.durations("overlay.Run"))
		l["sim.events"] = float64(cycles[0].events)
		l["sim.events_per_s"] = float64(cycles[0].events) / l["overlay.run_s"]
		for _, layer := range []string{"core", "guard", "table", "id", "msg", "sim", "overlay"} {
			l[layer+".self_ms_per_join"] = 1000 * tr.self("join", layer) / measured
		}
		l["runtime.gc_ms_per_join"] = 1000 * tr.runtime["join"].gcCPU / measured
		for _, t := range joinTypes {
			l["core.sent_per_join."+t.String()] = float64(sentByType[t]) / joins
		}
		l["guard.rejected"] = float64(rejected)
		l["netcheck.self_s"] = tr.self("verify", "netcheck") / float64(len(traced))
		l["dht.lookup_us"] = 1e6 * mean(tr.durations("dht.Lookup"))
		nl := float64(pwLookups * len(traced))
		l["dht.self_us_per_lookup"] = 1e6 * tr.self("lookup", "dht") / nl
		l["table.self_us_per_lookup"] = 1e6 * tr.self("lookup", "table") / nl
		l["dht.hops_max"] = float64(hopsMax)
		l["trace.overhead_pct"] = overheadPct(cpu(cycles), cpu(traced))
	}
	return rep
}

// paperWaveCycle runs one cycle. With ref nil it checks every output:
// Theorem 2 (every joiner in system), Theorem 3 (at most d+1
// CpRst+JoinWait per join), Theorem 5 (mean JoinNoti under the bound),
// Definition 3.8 by this program's own checker, no guard rejection, and
// the DHT roots. Otherwise it requires the counts of ref, the first
// cycle on the same input.
func paperWaveCycle(o opts, rep *report, ref *pwResult) (pwCycle, pwResult) {
	tr := o.tr
	var cy pwCycle
	var res pwResult
	p := pwParams

	// Inputs, drawn as overlay.RunWave draws them, on a collected heap.
	tr.setPhase("other")
	resetPeakHeap()
	rng := rand.New(rand.NewSource(o.seed))
	taken := make(map[id.ID]bool, pwN+pwM)
	existing := overlay.RandomRefs(p, pwN, rng, taken)
	joiners := overlay.RandomRefs(p, pwM, rng, taken)
	net := overlay.New(overlay.Config{
		Params:  p,
		Latency: overlay.HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, o.seed),
	})

	tr.setPhase("build")
	sw := startWatch()
	h := tr.begin("overlay.BuildDirect")
	net.BuildDirect(existing, rng)
	tr.end(h)
	cy.setup, _ = sw.stop()

	tr.setPhase("other")
	machines := make([]*core.Machine, 0, pwM)
	for _, ref := range joiners {
		machines = append(machines, net.ScheduleJoin(ref, existing[rng.Intn(len(existing))], 0))
	}

	tr.setPhase("join")
	sw = startWatch()
	h = tr.begin("overlay.Run")
	cy.events = net.Run()
	tr.end(h)
	cy.waveWall, cy.waveCPU = sw.stop()
	cy.allocKB = sw.allocKB() / pwM
	cy.vsec = net.Engine().Now().Seconds()
	cy.delivered = net.Delivered()

	tr.setPhase("other")
	res.records = net.Joins()
	res.traffic = net.AggregateTraffic()
	res.rejected = net.GuardStats().Rejected
	failedJoins := 0
	for _, m := range machines {
		if !m.IsSNode() {
			failedJoins++
		}
		res.joinerSent += m.Counters().TotalSent()
		res.joinerBytes += m.Counters().BytesSent
	}
	for _, r := range res.records {
		res.joinNoti += r.JoinNotiSent
	}
	rep.op("joins", pwM, failedJoins)
	if failedJoins > 0 || len(res.records) != pwM {
		rep.fail("paper-wave: %d of %d joiners not in system, %d join records (Theorem 2)", failedJoins, pwM, len(res.records))
	}
	members := memberIDs(append(append([]table.Ref(nil), existing...), joiners...))
	if !sameMembers(members, net.Members()) {
		rep.fail("paper-wave: the network's members differ from the %d nodes built and joined", len(members))
	}
	if ref == nil {
		for _, r := range res.records {
			if r.CpRstSent+r.JoinWaitSent > analysis.Theorem3Bound(p.D) {
				rep.fail("paper-wave: join of %v sent %d CpRst+JoinWait > d+1 (Theorem 3)", r.Ref.ID, r.CpRstSent+r.JoinWaitSent)
			}
		}
		if bound := analysis.UpperBoundJoinNoti(p.B, p.D, pwN, pwM); float64(res.joinNoti)/pwM > bound {
			rep.fail("paper-wave: mean JoinNoti %.3f over the Theorem 5 bound %.3f", float64(res.joinNoti)/pwM, bound)
		}
		if bad := checkDef38(p, members, simTables(net), 5); len(bad) > 0 {
			rep.fail("paper-wave: Definition 3.8 violated: %v", bad)
		}
		if res.rejected != 0 {
			rep.fail("paper-wave: guard rejected %d honest messages", res.rejected)
		}
	} else if res.traffic != ref.traffic || res.joinNoti != ref.joinNoti || res.rejected != ref.rejected {
		rep.fail("paper-wave: input %d replayed with other counts (%d vs %d messages)", o.seed, res.traffic.TotalSent(), ref.traffic.TotalSent())
	}

	tr.setPhase("verify")
	violations := 0
	cy.verify = timeVerify(tr, 1, 0, func() { violations = len(net.CheckConsistency()) })
	if violations != 0 {
		rep.fail("paper-wave: netcheck reports %d violations", violations)
	}

	res.lookups = lookupPhase(o, rep, "paper-wave", p, net, members, rng, pwObjects, pwLookups, ref == nil)
	cy.lookupRates, cy.heapMB = res.lookups.rates, res.lookups.heapMB
	if ref != nil && (res.lookups.hops != ref.lookups.hops || res.lookups.hopsMax != ref.lookups.hopsMax) {
		rep.fail("paper-wave: input %d replayed with other lookup hops", o.seed)
	}
	return cy, res
}

// lookupResult is one lookup phase's outcome.
type lookupResult struct {
	hops, lookups, hopsMax int
	rates                  []float64 // lookups per second of each of lookupBatches batches
	heapMB                 float64
}

const lookupBatches = 20

// lookupPhase publishes objects at random holders, then times lookups
// from random members in lookupBatches batches; each lookup must return
// the holder published for its object within d hops. With full set it
// also checks every object's root against bruteRoot. It ends by reading
// the peak live heap, with the network and the store still alive.
func lookupPhase(o opts, rep *report, name string, p id.Params, resolver core.TableResolver, members []id.ID,
	rng *rand.Rand, objects, lookups int, full bool) lookupResult {
	tr := o.tr
	var res lookupResult
	store := dht.NewStore(p, resolver)
	objs := make([]id.ID, objects)
	holder := make(map[id.ID]id.ID, objects)
	for i := range objs {
		obj := id.Random(p, rng)
		for holder[obj] != id.Null {
			obj = id.Random(p, rng)
		}
		objs[i] = obj
		hid := members[rng.Intn(len(members))]
		holder[obj] = hid
		h := tr.begin("dht.Publish")
		_, err := store.Publish(obj, table.Ref{ID: hid, Addr: "sim://" + hid.String()})
		tr.end(h)
		if err != nil {
			rep.fail("%s: publish: %v", name, err)
			return res
		}
		from := members[rng.Intn(len(members))]
		if !full {
			continue
		}
		want := bruteRoot(p, members, obj)
		h = tr.begin("dht.Root")
		got, err := store.Root(from, obj)
		tr.end(h)
		if err != nil || got != want {
			rep.fail("%s: root of %v is %v (%v), brute force says %v", name, obj, got, err, want)
		}
	}
	from := make([]id.ID, lookups)
	what := make([]id.ID, lookups)
	for i := range from {
		from[i] = members[rng.Intn(len(members))]
		what[i] = objs[rng.Intn(len(objs))]
	}
	failed := 0
	tr.setPhase("lookup")
	batch := lookups / lookupBatches
	t0 := time.Now()
	for i := range from {
		h := tr.begin("dht.Lookup")
		got, n, err := store.Lookup(from[i], what[i])
		tr.end(h)
		if err != nil || got.ID != holder[what[i]] || n > p.D {
			failed++
			if failed <= 3 {
				rep.fail("%s: lookup of %v from %v gave %v in %d hops (%v), published holder %v",
					name, what[i], from[i], got.ID, n, err, holder[what[i]])
			}
		}
		res.hops += n
		res.hopsMax = max(res.hopsMax, n)
		if (i+1)%batch == 0 {
			res.rates = append(res.rates, float64(batch)/time.Since(t0).Seconds())
			t0 = time.Now()
		}
	}
	tr.setPhase("other")
	rep.op("lookups", lookups, failed)
	res.lookups = lookups
	res.heapMB = peakHeapMB()
	runtime.KeepAlive(store)
	runtime.KeepAlive(resolver)
	return res
}

func memberIDs(refs []table.Ref) []id.ID {
	out := make([]id.ID, len(refs))
	for i, r := range refs {
		out[i] = r.ID
	}
	return out
}

// sameMembers reports whether the program's member registry holds
// exactly the IDs the benchmark expects.
func sameMembers(want []id.ID, got []table.Ref) bool {
	if len(want) != len(got) {
		return false
	}
	in := make(map[id.ID]bool, len(want))
	for _, x := range want {
		in[x] = true
	}
	for _, r := range got {
		if !in[r.ID] {
			return false
		}
	}
	return true
}

// simTables reads a simulated network's live tables.
func simTables(net *overlay.Network) func(id.ID) (*table.Table, bool) { return net.TableOf }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
