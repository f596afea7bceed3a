package main

// unitOf names a metric and its unit.
type unitOf struct{ name, unit string }

// layerMetrics are the per-layer metrics taken from traced rounds.
var layerMetrics = []unitOf{
	{"xmltok.tokenize_mb_s", "MB/s"},
	{"xmltok.tokenize_allocs_per_token", "count"},
	{"xmltok.write_s", "s"},

	{"core.until_eof_s", "s"},
	{"core.emit_s", "s"},
	{"core.subtree_sorts", "count"},
	{"core.external_sorts", "count"},
	{"core.run_blocks", "count"},
	{"core.scratch_blocks", "count"},
	{"core.bound_ratio", "ratio"},

	{"extsort.until_eof_s", "s"},
	{"extsort.middle_s", "s"},
	{"extsort.emit_s", "s"},
	{"extsort.initial_runs", "count"},
	{"extsort.merge_passes", "count"},
	{"extsort.record_amp", "ratio"},

	{"xmltree.parse_s", "s"},
	{"xmltree.keys_s", "s"},
	{"xmltree.sort_s", "s"},
	{"xmltree.write_s", "s"},

	{"em.dev_reads", "count"},
	{"em.dev_writes", "count"},
	{"em.dev_read_mb", "MB"},
	{"em.dev_write_mb", "MB"},
	{"em.dev_read_s", "s"},
	{"em.dev_write_s", "s"},
	{"em.ios.input", "count"},
	{"em.ios.subtree-sort", "count"},
	{"em.ios.data-stack", "count"},
	{"em.ios.path-stack", "count"},
	{"em.ios.run-read", "count"},
	{"em.ios.output-stack", "count"},
	{"em.ios.output", "count"},
	{"em.ios.merge-run", "count"},
	{"em.budget_peak_blocks", "count"},
	{"em.frames_peak", "count"},
	{"em.retries", "count"},
	{"em.checksum_failures", "count"},

	{"merge.matched", "count"},
	{"merge.output_elements", "count"},
	{"merge.output_writes_per_mb", "1/MB"},
	{"merge.output_write_s", "s"},

	{"io.input_reads", "count"},
	{"io.input_read_s", "s"},
	{"io.output_writes", "count"},
	{"io.output_write_s", "s"},
}

// procMetricUnits are the process metrics, taken from the untraced rounds
// of a traced run.
var procMetricUnits = []unitOf{
	{"proc.cpu_s", "s"},
	{"proc.cpu_util", "ratio"},
	{"proc.alloc_mb", "MB"},
	{"proc.allocs_per_element", "count"},
	{"proc.gc_count", "count"},
	{"proc.gc_pause_s", "s"},
}
