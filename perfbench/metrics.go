package main

import (
	"hypercube/internal/msg"
)

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares (metrics_test.go keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"join_p50_ms", "ms"},
	{"msgs_per_join", "count"},
	{"bytes_per_join", "B"},
	{"runtime.alloc_kb_per_join", "KiB"},
	{"lookup_hops", "count"},
	{"peak_heap_mb", "MB"},
}

// joinTypes are the join protocol's message types (Figures 5–14): the
// ones msgs_per_join counts and core.sent_per_join.<Type> breaks down.
var joinTypes = []msg.Type{
	msg.TCpRst, msg.TCpRly, msg.TJoinWait, msg.TJoinWaitRly, msg.TJoinNoti, msg.TJoinNotiRly,
	msg.TInSysNoti, msg.TSpeNoti, msg.TSpeNotiRly, msg.TRvNghNoti, msg.TRvNghNotiRly,
}

// perLayer are the traced mode's metrics. A layer a workload does not
// run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"overlay.build_s", "s"},
		{"overlay.run_s", "s"},
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
	}
	for _, l := range []string{"core", "guard", "table", "id", "msg", "sim", "overlay", "tcptransport", "wire", "net"} {
		defs = append(defs, metricDef{l + ".self_ms_per_join", "ms"})
	}
	defs = append(defs,
		metricDef{"runtime.gc_ms_per_join", "ms"},
	)
	for _, t := range joinTypes {
		defs = append(defs, metricDef{"core.sent_per_join." + t.String(), "count"})
	}
	defs = append(defs,
		metricDef{"guard.rejected", "count"},
		metricDef{"netcheck.self_s", "s"},
		metricDef{"dht.lookup_us", "us"},
		metricDef{"dht.self_us_per_lookup", "us"},
		metricDef{"table.self_us_per_lookup", "us"},
		metricDef{"dht.hops_max", "count"},
		metricDef{"liveness.probes_per_node_vsec", "count"},
		metricDef{"antientropy.rounds_per_node_vsec", "count"},
		metricDef{"sampling.rounds_per_node_vsec", "count"},
	)
	for _, l := range []string{"liveness", "rtt", "antientropy", "sampling", "core", "sim", "overlay"} {
		defs = append(defs, metricDef{l + ".self_ms_per_vsec", "ms"})
	}
	defs = append(defs,
		metricDef{"core.resends", "count"},
		metricDef{"core.give_ups", "count"},
		metricDef{"liveness.declared", "count"},
		metricDef{"liveness.suspects", "count"},
		metricDef{"tcptransport.retried", "count"},
		metricDef{"tcptransport.dropped", "count"},
		metricDef{"tcptransport.goroutines_per_node", "count"},
		metricDef{"liveness.self_ms_per_node_s", "ms"},
		metricDef{"joins_per_s", "1/s"},
		metricDef{"cpu_ms_per_join", "ms"},
		metricDef{"lookups_per_s", "1/s"},
		metricDef{"verify_s", "s"},
		metricDef{"join_tail_ms", "ms"},
		metricDef{"joinnoti_per_join", "count"},
		metricDef{"vsec_per_s", "s/s"},
		metricDef{"msgs_per_node_vsec", "count"},
		metricDef{"converge_ms", "ms"},
		metricDef{"idle_cpu_ms_per_node_s", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
	return defs
}()
