package main

import (
	"fmt"

	prism "repro"
	"repro/internal/obs"
)

// hist returns a histogram's lifetime summary, merged across shards:
// counts and sums add, percentiles take the largest series'. Lifetime
// percentiles are the phase's own only for histograms nothing records
// into before the phase (the server's and the async pipeline's).
func hist(s prism.Metrics, name string, labels ...string) obs.HistogramValue {
	var out obs.HistogramValue
	for _, m := range s.Metrics {
		if m.Name != name || m.Hist == nil || !hasLabels(m, labels) {
			continue
		}
		out.Count += m.Hist.Count
		out.Sum += m.Hist.Sum
		out.P50 = max(out.P50, m.Hist.P50)
		out.P99 = max(out.P99, m.Hist.P99)
	}
	out.Mean = ratio(float64(out.Sum), float64(out.Count))
	return out
}

// sum adds the values of every series of name carrying the labels,
// given as key, value pairs.
func sum(s prism.Metrics, name string, labels ...string) float64 {
	var t float64
	for _, m := range s.Metrics {
		if m.Name == name && hasLabels(m, labels) {
			t += m.Value
		}
	}
	return t
}

func hasLabels(m obs.Metric, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if m.Labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// spanNames are the spans a traced run reports self time for: per-op
// spans in µs per span, phase spans in ms in total.
var (
	opSpans    = []string{"op", "resp.roundtrip", "store.get", "store.put", "store.scan", "store.flush"}
	phaseSpans = []string{"setup.open", "setup.load", "recover.crash", "recover.recover", "verify"}
)

// perLayer computes the per-layer metrics: counters from the store's
// metrics delta over the untraced half a, normalized per op, put or
// scan; Go runtime deltas over a; span self times and the tracing
// overhead from the traced half b.
func perLayer(w *workload, a, b *measured, tr *tracer, rep prism.RecoveryReport) []metric {
	d := a.after.Delta(a.before)
	ops := float64(a.ops)
	puts, scans := sum(d, "core.ops", "op", "put"), sum(d, "core.ops", "op", "scan")
	reads := sum(d, "core.read_path")
	bd := b.after.Delta(b.before)
	wallKops := func(m *measured) float64 { return ratio(float64(m.ops), m.wall.Seconds()) / 1e3 }
	// Client round trip minus the server's own command latency: the
	// socket, the kernel and the client's parsing (wire only).
	var rttMinusServer float64
	if w.wire {
		var rtt float64
		for _, x := range b.wlat {
			rtt += float64(x)
		}
		rd, wr := hist(bd, "server.cmd_latency", "class", "read"), hist(bd, "server.cmd_latency", "class", "write")
		rttMinusServer = ratio(rtt, float64(len(b.wlat))) - ratio(float64(rd.Sum+wr.Sum), float64(rd.Count+wr.Count))
	}

	ms := []metric{
		{name: "server.cmd_latency.read.p50_us", value: float64(hist(a.after, "server.cmd_latency", "class", "read").P50) / 1e3, unit: "us"},
		{name: "server.cmd_latency.write.p50_us", value: float64(hist(a.after, "server.cmd_latency", "class", "write").P50) / 1e3, unit: "us"},
		{name: "server.dispatch_wait.p99_us", value: float64(hist(a.after, "server.dispatch_wait").P99) / 1e3, unit: "us"},
		{name: "server.pipeline_depth.mean", value: hist(d, "server.pipeline_depth").Mean, unit: "count"},
		{name: "trace.resp_roundtrip_minus_server_us", value: rttMinusServer / 1e3, unit: "us"},
		{name: "runtime.alloc_bytes_per_op", value: ratio(float64(a.mem1.TotalAlloc-a.mem0.TotalAlloc), ops), unit: "B"},
		{name: "runtime.gc_cycles", value: float64(a.mem1.NumGC - a.mem0.NumGC), unit: "count"},
		{name: "runtime.gc_pause_ms", value: float64(a.mem1.PauseTotalNs-a.mem0.PauseTotalNs) / 1e6, unit: "ms"},
		{name: "core.async_window.mean", value: hist(d, "core.async_window").Mean, unit: "count"},
		{name: "core.async_latency.mean_us", value: hist(d, "core.async_latency").Mean / 1e3, unit: "us"},
		// Printed, not in the result: the lifetime p99 (nothing uses the
		// async pipeline before the measured phase) is a histogram bucket
		// bound, so it can read the same on every run.
		{name: "core.async_latency.p99_us", value: float64(hist(a.after, "core.async_latency").P99) / 1e3, unit: "us", info: true, note: "bucket bound"},
		{name: "epoch.enters_per_op", value: ratio(sum(d, "epoch.enters"), ops), unit: "count"},
		{name: "core.read_path.svc_share", value: ratio(sum(d, "core.read_path", "source", "svc"), reads), unit: "ratio"},
		{name: "core.read_path.pwb_share", value: ratio(sum(d, "core.read_path", "source", "pwb"), reads), unit: "ratio"},
		{name: "core.read_path.vs_share", value: ratio(sum(d, "core.read_path", "source", "vs"), reads), unit: "ratio"},
		{name: "core.put_stalls_per_kput", value: 1e3 * ratio(sum(d, "core.put_stalls"), puts), unit: "count"},
		{name: "svc.hit_ratio", value: ratio(sum(d, "svc.hits"), sum(d, "svc.hits")+sum(d, "svc.misses")), unit: "ratio"},
		{name: "svc.evictions_per_kop", value: 1e3 * ratio(sum(d, "svc.evictions"), ops), unit: "count"},
		{name: "svc.scan_rewrites_per_kscan", value: 1e3 * ratio(sum(d, "svc.scan_rewrites"), scans), unit: "count"},
		{name: "tcq.avg_batch", value: ratio(sum(d, "tcq.combined"), sum(d, "tcq.batches")), unit: "count"},
		{name: "ssd.read_ios_per_op", value: ratio(sum(d, "ssd.read_ios"), ops), unit: "count"},
		{name: "ssd.bytes_read_per_op", value: ratio(sum(d, "ssd.bytes_read"), ops), unit: "B"},
		{name: "ssd.write_ios_per_kput", value: 1e3 * ratio(sum(d, "ssd.write_ios"), puts), unit: "count"},
		{name: "pwb.reclaims_per_kput", value: 1e3 * ratio(sum(d, "pwb.reclaims"), puts), unit: "count"},
		{name: "pwb.live_migrated_ratio", value: ratio(sum(d, "pwb.live_migrated"), puts), unit: "ratio"},
		{name: "vs.gc_runs", value: sum(d, "vs.gc_runs"), unit: "count"},
		{name: "vs.gc_bytes_moved_per_user_byte", value: ratio(sum(d, "vs.gc_bytes_moved"), sum(d, "core.user_bytes")), unit: "ratio"},
		{name: "nvm.flushes_per_op", value: ratio(sum(d, "nvm.flushes"), ops), unit: "count"},
		{name: "nvm.fences_per_op", value: ratio(sum(d, "nvm.fences"), ops), unit: "count"},
		{name: "shard.scan_merges_per_scan", value: ratio(sum(d, "shard.scan_merges"), scans), unit: "count"},
		{name: "recovery.pwb_values_drained", value: float64(rep.PWBValuesDrained), unit: "count"},
		{name: "recovery.vs_values_recovered", value: float64(rep.VSValuesRecovered), unit: "count"},
		{name: "trace.overhead_wall_kops", value: wallKops(a) - wallKops(b), unit: "kop/s",
			note: fmt.Sprintf("untraced %.3f, traced %.3f", wallKops(a), wallKops(b))},
		{name: "trace.overhead_wall_p50_us", value: (pct(b.wlat, 50) - pct(a.wlat, 50)) / 1e3, unit: "us",
			note: fmt.Sprintf("untraced %.3f, traced %.3f", pct(a.wlat, 50)/1e3, pct(b.wlat, 50)/1e3)},
	}
	ms = append(ms, vlatPercentiles(w, a)...)
	self := tr.selfTimes()
	for _, n := range opSpans {
		s := self[n]
		ms = append(ms, metric{name: "span." + n + ".self_us", value: ratio(s[1], s[0]) / 1e3, unit: "us", note: fmt.Sprintf("mean of %.0f spans", s[0])})
	}
	for _, n := range phaseSpans {
		ms = append(ms, metric{name: "span." + n + ".self_ms", value: self[n][1] / 1e6, unit: "ms"})
	}
	return ms
}
