package main

// perLayer are the metrics of single layers, measured only in the traced
// run by timing calls into each module's public functions. Each is bound to
// one environment — a workload's datasets — named in README.md: in that
// workload's traced run it is measured at full scale on the workload's own
// files and rows, in the other workloads' traced runs on a tenth-scale copy
// (every traced run prints every per-layer metric). They carry no bound.
var perLayer = func() []metricDecl {
	lower := func(name, unit string) metricDecl { return metricDecl{name: name, unit: unit, better: "lower"} }
	higher := func(name, unit string) metricDecl { return metricDecl{name: name, unit: unit, better: "higher"} }
	ds := []metricDecl{
		// serde
		lower("serde.decode_ns_per_row", "ns/row"),
		lower("serde.decode_allocs_per_row", "allocs/row"),
		lower("serde.scan_ns_per_row", "ns/row"),
		lower("serde.encode_ns_per_row", "ns/row"),
		// compress
		higher("compress.lzo_inflate_mb_s", "MB/s"),
		higher("compress.lzo_deflate_mb_s", "MB/s"),
		higher("compress.zlib_inflate_mb_s", "MB/s"),
		higher("compress.zlib_deflate_mb_s", "MB/s"),
	}
	// colfile
	for _, layout := range colfileLayouts {
		ds = append(ds,
			lower("colfile."+layout+".cursor_ns_per_row", "ns/row"),
			lower("colfile."+layout+".vector_ns_per_row", "ns/row"),
			lower("colfile."+layout+".write_ns_per_row", "ns/row"))
	}
	ds = append(ds,
		lower("colfile.dcsl.idvector_ns_per_row", "ns/row"),
		lower("colfile.skiplist.skip_ns_per_jump", "ns/jump"),
		lower("colfile.stats_parse_us_per_file", "us/file"),
		lower("colfile.stats_bytes_share", "ratio"),
		// scan
		lower("scan.veceval_eq_str_ns_per_row", "ns/row"),
		lower("scan.veceval_range_str_ns_per_row", "ns/row"),
		lower("scan.veceval_le_int_ns_per_row", "ns/row"),
		lower("scan.veceval_dictid_eq_ns_per_row", "ns/row"),
		lower("scan.fold_count_ns_per_row", "ns/row"),
		lower("scan.fold_sum_ns_per_row", "ns/row"),
		lower("scan.fold_groupby_ns_per_row", "ns/row"),
		lower("scan.fold_stats_ns_per_group", "ns/group"),
		lower("scan.prune_group_ns", "ns"),
		lower("scan.estimate_us", "us"),
		lower("scan.parse_us", "us"),
		lower("scan.bloom_probe_ns", "ns"),
		lower("scan.selection_allocs_per_batch", "allocs/batch"),
		// vec
		lower("vec.cache_hit_ns", "ns"),
		lower("vec.cache_add_ns", "ns"),
		// hdfs
		higher("hdfs.read_mb_s", "MB/s"),
		lower("hdfs.open_us", "us"),
		higher("hdfs.write_mb_s", "MB/s"),
		higher("hdfs.cache_hit_share", "ratio"),
		// core
		lower("core.plan_us", "us"),
		lower("core.explain_us", "us"),
		lower("core.open_us_per_split", "us/split"),
		lower("core.solo_next_ns_per_row", "ns/row"),
		lower("core.lazy_get_ns", "ns"),
		lower("core.agg_drain_ns_per_row", "ns/row"),
		lower("core.shared8_next_ns_per_row", "ns/row"),
		lower("core.shared1_over_solo", "ratio"),
		lower("core.write_ns_per_row", "ns/row"),
		higher("core.splits_pruned_share", "ratio"),
		higher("core.groups_pruned_share", "ratio"),
		higher("core.records_pruned_share", "ratio"),
		higher("core.rows_vectorized_share", "ratio"),
		higher("core.agg_groups_shortcut_share", "ratio"),
		// mapred
		lower("mapred.empty_job_ms", "ms"),
		lower("mapred.map_phase_ms", "ms"),
		lower("mapred.shuffle_reduce_ms", "ms"),
		higher("mapred.speedup_vs_serial", "ratio"),
		lower("mapred.batch8_over_solo8", "ratio"),
	)
	for _, arm := range passArms {
		ds = append(ds, lower("mapred.run_ms."+arm, "ms"))
	}
	ds = append(ds,
		// serve
		lower("serve.query_p50_ms", "ms"),
		lower("serve.query_p90_ms", "ms"),
		lower("serve.query_p99_ms", "ms"),
		lower("serve.enqueue_us", "us"),
		lower("serve.window_wait_ms", "ms"),
		higher("serve.batch_queries_mean", "count"),
		higher("serve.shared_batch_share", "ratio"),
		higher("serve.bytes_saved_share", "ratio"),
		lower("serve.declined_share", "ratio"),
		lower("serve.http_roundtrip_overhead_us", "us"),
		lower("serve.stats_call_us", "us"),
		// ingest
		lower("ingest.append_ns_per_row", "ns/row"),
		lower("ingest.flush_ms", "ms"),
		lower("ingest.compact_ms", "ms"),
		lower("ingest.gc_ms", "ms"),
		lower("ingest.stall_max_ms", "ms"),
		lower("ingest.compaction_bytes_per_user_byte", "ratio"),
		lower("ingest.flushed_files", "count"),
		lower("ingest.generations", "count"),
		lower("ingest.live_query_ms", "ms"),
		lower("ingest.fresh_partitions_scanned_mean", "count"),
		// formats
		lower("formats.txt_scan_ns_per_row", "ns/row"),
		lower("formats.seq_scan_ns_per_row", "ns/row"),
		lower("formats.rcfile_scan_ns_per_row", "ns/row"),
		higher("formats.seq_over_txt_speedup", "ratio"),
		higher("formats.cif_over_seq_speedup", "ratio"),
		// sim
		lower("sim.modeled_s_per_op", "s"),
		lower("sim.measured_over_modeled", "ratio"),
		higher("sim.order_agreement_share", "ratio"),
		// bench: the harness itself
		lower("bench.trace_overhead_share", "ratio"),
		lower("bench.mapper_self_ms", "ms"),
		lower("bench.gc_cpu_share", "ratio"),
		lower("bench.gc_cycles_per_op", "count"),
		lower("bench.noise_spin_cv", "ratio"),
	)
	return ds
}()

// colfileLayouts are the four column layouts the colfile probes cover.
var colfileLayouts = []string{"plain", "skiplist", "block_lzo", "dcsl"}

// passArms are the arms of the two pass workloads, each with its own
// mapred.run_ms.<arm> so a pass-level change can be attributed.
var passArms = []string{
	"plain_eq", "plain_range", "plain_le",
	"skiplist_eq", "skiplist_range", "skiplist_le",
	"block_lzo_eq", "block_lzo_range", "block_lzo_le",
	"agg_count_clustered", "agg_count_cyclic", "agg_fold_most", "agg_groupby", "agg_stats_full",
}
