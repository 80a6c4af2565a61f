package main

import "fmt"

// perLayer derives the per-layer metrics of a traced run and prints the
// reconciliation of the layers against the end-to-end means. A layer the
// workload does not cross reads 0: web-directed and weighted-churn call
// the Store in-process, with no HTTP layer and no WAL, and each workload
// drives exactly one of the three label kernels, searches and repair
// engines.
func perLayer(tm *timing, in *inputs) metrics {
	ph, d := tm.ph, tm.dlt
	m := metrics{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	nOps := float64(len(in.ops))

	// Read path.
	var rtt float64
	for _, r := range ph.reads {
		rtt += us(r.lat)
	}
	rtt /= float64(len(ph.reads))
	handlerUS := perOp(tm.hc.readNs, tm.hc.readN) / 1e3
	transportUS := 0.0
	if in.http {
		transportUS = rtt - handlerUS
	}
	queryUS := d.mean("dynhl_query_seconds", `variant="`+in.variant.String()+`"`) * 1e6
	set("httpapi.handler_us", handlerUS, "us")
	set("httpapi.transport_us", transportUS, "us")
	set("httpapi.allocs_per_read", tm.allocsPerRead, "count")
	set("httpapi.update_handler_ms", perOp(tm.hc.updNs, tm.hc.updN)/1e6, "ms")
	set("dynhl.query_us", queryUS, "us")
	batchPairs := d.get(`dynhl_query_batch_pairs_sum{variant="` + in.variant.String() + `"}`)
	batchUS := 0.0
	if batchPairs > 0 {
		batchUS = d.get(`dynhl_query_batch_seconds_sum{variant="`+in.variant.String()+`"}`) * 1e6 / batchPairs
	}
	set("dynhl.batch_us_per_pair", batchUS, "us")
	set("dynhl.build_s", median(tm.builds), "s")
	set("dynhl.entries_per_vertex", tm.entriesPerVertex, "count")

	// Write pipeline stages, per commit group (one op per group here).
	stages := []string{"coalesce_wait", "repair", "pack", "wal_commit", "publish"}
	stageMS := 0.0
	for _, s := range stages {
		v := d.mean("dynhl_apply_stage_seconds", `stage="`+s+`"`) * 1e3
		stageMS += v
		set("dynhl.stage."+s+"_ms", v, "ms")
	}

	// Label kernels, bounded searches and repair engines: the workload's
	// own variant is measured, the other two read 0.
	kernels := [...]string{"hcl", "dhcl", "whcl"}
	searches := [...]string{"bfs", "digraph", "wgraph"}
	engines := [...]string{"inchl", "dhcl", "whcl"}
	// Searches run per op: landmarks not skipped; for dhcl, passes (two
	// per landmark, forward and backward), which is how it counts Skipped.
	searchesPer := 1
	if in.variant == directed {
		searchesPer = 2
	}
	var affected, landmarks, changed float64
	for _, s := range ph.sums {
		affected += float64(s.Affected)
		landmarks += float64(searchesPer*s.Landmarks - s.Skipped)
		changed += float64(s.EntriesAdded + s.EntriesRemoved)
	}
	for v := range kernels {
		own := 0.0
		if variant(v) == in.variant {
			own = 1
		}
		set(kernels[v]+".bound_us", own*tm.boundUS, "us")
		set(searches[v]+".search_us", own*tm.searchUS, "us")
		set(engines[v]+".affected_per_op", own*affected/nOps, "count")
		set(engines[v]+".landmarks_per_op", own*landmarks/nOps, "count")
		set(engines[v]+".entries_changed_per_op", own*changed/nOps, "count")
	}

	// Fan-out pool: one task per landmark (per pass) repaired.
	tasks := d.get(`dynhl_repair_landmark_seconds_count{variant="` + in.variant.String() + `"}`)
	set("fanout.task_ms", d.mean("dynhl_repair_landmark_seconds", `variant="`+in.variant.String()+`"`)*1e3, "ms")
	set("fanout.tasks_per_op", tasks/nOps, "count")

	// WAL and arena.
	records := d.get("dynhl_wal_records_total")
	bytesPerOp := 0.0
	if records > 0 {
		bytesPerOp = d.get("dynhl_wal_appended_bytes_total") / records
	}
	set("wal.append_us", d.mean("dynhl_wal_append_seconds", "")*1e6, "us")
	set("wal.fsync_us", d.mean("dynhl_wal_fsync_seconds", "")*1e6, "us")
	set("wal.bytes_per_op", bytesPerOp, "B")
	set("wal.checkpoint_ms", tm.checkpointMS, "ms")
	set("arena.mapped_mb", tm.mappedMB, "MB")
	set("arena.restart_ms", median(tm.recovers)*1e3, "ms")

	// Runtime.
	set("go.gc_cycles", float64(ph.gcEnd.NumGC-ph.gc.NumGC), "count")
	set("go.gc_pause_ms", float64(ph.gcEnd.PauseTotalNs-ph.gc.PauseTotalNs)/1e6, "ms")

	// Reconciliation: the read layers and the write stages against the
	// end-to-end means; the residual is what no layer above accounts for.
	fmt.Printf("reconcile read (µs per single-pair read, %d reads)\n", len(ph.reads))
	fmt.Printf("  end-to-end mean           %10.2f\n", rtt)
	inner := queryUS
	if in.http {
		fmt.Printf("  httpapi transport         %10.2f\n", transportUS)
		fmt.Printf("  httpapi handler − store   %10.2f\n", handlerUS-queryUS)
		inner = handlerUS
	}
	fmt.Printf("  %-5s label kernel (Eq. 2) %8.2f   (fresh index, same landmarks)\n", kernels[in.variant], tm.boundUS)
	fmt.Printf("  %-7s bounded search    %9.2f\n", searches[in.variant], tm.searchUS)
	fmt.Printf("  dynhl view, snapshot, rest %9.2f\n", queryUS-tm.boundUS-tm.searchUS)
	fmt.Printf("  residual                  %10.2f   (end-to-end − layers: client side, contention)\n", rtt-transportUS-inner)

	ins, del := writeMeans(ph, in.ops)
	writeMS := (ins*float64(len(in.ops)-in.deletes) + del*float64(in.deletes)) / nOps
	fmt.Printf("reconcile write (ms per op, %d ops)\n", len(in.ops))
	fmt.Printf("  end-to-end mean           %10.3f   (insert %.3f, delete %.3f)\n", writeMS, ins, del)
	for _, s := range stages {
		fmt.Printf("  stage %-19s %10.3f\n", s, m["dynhl.stage."+s+"_ms"].Value)
	}
	inner = stageMS
	if in.http {
		upd := m["httpapi.update_handler_ms"].Value
		fmt.Printf("  httpapi handler − stages  %10.3f\n", upd-stageMS)
		inner = upd
	}
	fmt.Printf("  residual                  %10.3f   (transport, client side, apply queue hand-off)\n", writeMS-inner)
	fmt.Printf("  repair fan-out: %.1f tasks per op, %.3f ms per task; %s: %.1f landmarks searched, %.1f labels affected per op\n",
		tasks/nOps, m["fanout.task_ms"].Value, engines[in.variant], landmarks/nOps, affected/nOps)
	return m
}
