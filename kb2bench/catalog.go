package main

import "sort"

type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics a --trace 0 run prints, in BENCHMARK.json's
// order; perLayer the ones a --trace 1 run prints. The p99 timings are
// per-layer: see setP99.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"applied_pts_per_s", "pts/s", "higher"},
	{"ack_ms.p50", "ms", "lower"},
	{"visible_lag_ms.p50", "ms", "lower"},
	{"label_ms.p50", "ms", "lower"},
	{"fit_s", "s", "lower"},
	{"f1", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ack_ms.p99", "ms", "lower"},
		{"visible_lag_ms.p99", "ms", "lower"},
		{"label_ms.p99", "ms", "lower"},
		{"client.refused_frac", "ratio", "lower"},
		{"client.gen_late_ms.p99", "ms", "lower"},
		{"server.wire.decode_ns_per_pt", "ns", "lower"},
		{"server.wal.append_us.p50", "us", "lower"},
		{"server.wal.fsync_ms.p50", "ms", "lower"},
		{"server.wal.fsync_ms.p99", "ms", "lower"},
		{"server.wal.batches_per_fsync", "count", "higher"},
		{"server.http.ingest_ms.mean", "ms", "lower"},
		{"server.http.label_ms.mean", "ms", "lower"},
		{"server.queue.len.mean", "count", "lower"},
		{"server.stage.refit_ms.mean", "ms", "lower"},
		{"server.merge.install_ms.mean", "ms", "lower"},
		{"core.stream.apply_ns_per_pt", "ns", "lower"},
		{"core.stream.refit_ms.p50", "ms", "lower"},
		{"core.stream.refit_ms.p99", "ms", "lower"},
		{"core.stream.refits", "count", "lower"},
		{"core.stream.writer_busy_frac", "ratio", "lower"},
		{"core.stream.refit_frac", "ratio", "lower"},
		{"core.stream.sketch_keys", "count", "lower"},
		{"core.model.assign_ns_per_pt", "ns", "lower"},
		{"shardcluster.proxy_ms.p50", "ms", "lower"},
		{"shardcluster.merge_ms.p50", "ms", "lower"},
		{"shardcluster.merge_ms.p99", "ms", "lower"},
		{"shardcluster.merge_state_bytes", "bytes", "lower"},
		{"shardcluster.merges", "count", "higher"},
		{"shardcluster.router_merge_ms.mean", "ms", "lower"},
		{"core.shardmerge.export_ms.p50", "ms", "lower"},
		{"core.shardmerge.fold_ms.p50", "ms", "lower"},
		{"core.shardmerge.install_ms.p50", "ms", "lower"},
		{"core.fit.serial_s", "s", "lower"},
		{"core.fit.key_assign_ns_per_pt", "ns", "lower"},
		{"core.fit.tuple_count_ns_per_pt", "ns", "lower"},
		{"core.fit.project_ms", "ms", "lower"},
		{"mpi.bytes", "bytes", "lower"},
		{"mpi.messages", "count", "lower"},
		{"mpi.allreduce.bytes", "bytes", "lower"},
		{"mpi.collective_ms", "ms", "lower"},
		{"go.alloc_mb_per_fit", "MB", "lower"},
		{"go.gc_cycles_per_fit", "count", "lower"},
		{"trace.spans", "count", "higher"},
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{"trace.self_ms." + s, "ms", "lower"})
	}
	for _, name := range traceOverhead {
		defs = append(defs, metricDef{"trace.overhead." + name, e2eUnit(name), "lower"})
	}
	return defs
}()

// traceOverhead names the end-to-end metrics whose traced-minus-untraced
// difference a traced run reports.
var traceOverhead = []string{"ack_ms.p50", "applied_pts_per_s", "label_ms.p50", "fit_s"}

func e2eUnit(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// fillAbsent gives every per-layer metric the run did not measure a 0 and
// records why.
func (r *run) fillAbsent() {
	for _, d := range perLayer {
		if _, ok := r.layer[d.name]; !ok {
			r.layer[d.name] = metric{0, d.unit}
			if _, ok := r.absent[d.name]; !ok {
				r.absent[d.name] = "not exercised by " + r.workload
			}
		}
	}
}

func sortBySeq(recs []*batchRec) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
}

func sortByAck(recs []*batchRec) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].acked.Before(recs[j].acked) })
}
