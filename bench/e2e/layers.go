package main

import (
	"fmt"
	"runtime"
)

// endToEnd and perLayerUnits name every metric the driver's line carries,
// with its unit: the first set with --trace 0, the second with --trace 1.
// BENCHMARK.json lists the same names; a test holds the two together.
var (
	endToEnd = map[string]string{
		"job_ms_p50": "ms",
		"jobs_per_s": "1/s",
		"setup_s":    "s",
	}
	perLayerUnits = map[string]string{
		// reported beside the end-to-end metrics, never gated
		"job_ms_p90":           "ms",
		"job_n":                "count",
		"proc.peak_rss_mb":     "MB",
		"core.mlookups_per_s":  "Mlookups/s",
		"trace_overhead_frac":  "ratio",
		"trace.child_sum_frac": "ratio",
		// core, elt, mem
		"core.gather_ms":             "ms",
		"core.ns_per_lookup":         "ns",
		"core.lookups":               "count",
		"core.roofline_frac":         "ratio",
		"mem.random_mloads_per_s":    "Mloads/s",
		"mem.stream_gbps":            "GB/s",
		"elt.gather_ns_per_occ":      "ns",
		"elt.bytes_per_occ_computed": "B",
		"core.sweep_ms":              "ms",
		"core.sweep_compile_ms":      "ms",
		"elt.sampled_ns_per_lookup":  "ns",
		"metrics.summary_busy_ms":    "ms",
		"metrics.ep_busy_ms":         "ms",
		"core.ylt_busy_ms":           "ms",
		"metrics.sink_calls":         "count",
		"pricing.price_ms":           "ms",
		// server
		"server.queue_ms":         "ms",
		"server.fused_batch_mean": "jobs",
		"server.fused_frac":       "ratio",
		"server.submit_ms":        "ms",
		"server.run_ms":           "ms",
		"server.notify_ms":        "ms",
		"server.result_ms":        "ms",
		"server.overhead_ms":      "ms",
		"server.result_bytes":     "B",
		"server.alloc_kb_per_job": "kB",
		"server.allocs_per_job":   "count",
		// spec, tenant, store
		"spec.parse_us":       "us",
		"tenant.admit_us":     "us",
		"store.submitted_us":  "us",
		"store.started_us":    "us",
		"store.done_us":       "us",
		"store.bytes_per_job": "B",
		// artifact, yet
		"artifact.build_ms":  "ms",
		"artifact.hit_us":    "us",
		"artifact.hit_ratio": "ratio",
		"yet.generate_ms":    "ms",
		"yet.spill_write_ms": "ms",
		"yet.map_us":         "us",
		"yet.bytes":          "B",
		// dist
		"dist.exec_shard_ms":      "ms",
		"dist.wire_encode_us":     "us",
		"dist.wire_decode_us":     "us",
		"dist.wire_bytes_per_job": "B",
		"dist.overhead_ms":        "ms",
		"dist.shards_per_job":     "count",
	}
)

// counters is a snapshot of what the process and the service count, taken
// on either side of the traced loop.
type counters struct {
	allocBytes, allocs     uint64
	batchSum, batchCount   float64
	cacheHits, cacheMisses float64
}

func (s *sut) counters() (counters, error) {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.allocs = ms.TotalAlloc, ms.Mallocs
	if s.sys == nil {
		return c, nil
	}
	cl := newClient(s.sys.url)
	defer cl.close()
	m, err := cl.scrape("ared_admission_batch_size_sum", "ared_admission_batch_size_count",
		"ared_cache_hits_total", "ared_cache_misses_total")
	if err != nil {
		return c, err
	}
	c.batchSum, c.batchCount = m["ared_admission_batch_size_sum"], m["ared_admission_batch_size_count"]
	c.cacheHits, c.cacheMisses = m["ared_cache_hits_total"], m["ared_cache_misses_total"]
	return c, nil
}

// paperService is how engine.paper's job is put through a service in its
// traced run, so that the server rows exist for the paper's shape too.
// It is outside every end-to-end number.
var paperService = workload{
	name: "engine.paper/service", loop: loopSerial, clients: 1, cycle: 1,
	jobWorkers: 1, engineWorkers: 2,
}

const paperServiceJobs = 2

// servicePhase submits engine.paper's job to a fresh single-role server:
// one cold job to build the artifacts, then paperServiceJobs traced ones.
func servicePhase(cfg *runConfig) (*tracer, *measured, error) {
	w := paperService
	w.jobs = cfg.w.jobs
	side := &sut{st: newStream(&w, gen{cfg.seed}, cfg.sz)}
	var err error
	if side.sys, err = startSystem(&w, cfg.sz, cfg.tmp); err != nil {
		return nil, nil, err
	}
	defer side.close()
	if err := side.st.warm(side.sys); err != nil {
		return nil, nil, err
	}
	m := &measured{}
	if m.pre, err = side.counters(); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	c := newClient(side.sys.url)
	defer c.close()
	for i := 0; i < paperServiceJobs; i++ {
		d, err := c.run(side.st.body(0), true)
		if err == nil {
			err = d.trace(tr)
		}
		if err != nil {
			return nil, nil, err
		}
		m.served = append(m.served, d)
	}
	m.post, err = side.counters()
	return tr, m, err
}

// perLayer fills the traced run's metrics. The server rows come from the
// loop's client-side spans (for engine.paper, from servicePhase), the rest
// from the stage replay.
func perLayer(cfg *runConfig, s *sut, m *measured, tr *tracer, out *outcome, rec *record) error {
	put := func(name string, v float64) {
		unit, ok := perLayerUnits[name]
		if !ok {
			panic("bench: unnamed per-layer metric " + name) // a bug: the table above is the contract
		}
		out.Metrics[name] = metric{v, unit}
	}
	lat, latTraced, latPlain := m.latencies()
	put("job_ms_p90", percentile(lat, 90))
	put("job_n", float64(len(lat)))
	put("trace_overhead_frac", median(latTraced)/median(latPlain)-1)

	// engine.paper has no service in it; its server rows come from a side
	// run whose spans join the same tracer (their names are the service's
	// own, so they never mix with a library job's).
	svc := m
	if s.sys == nil {
		side, sm, err := servicePhase(cfg)
		if err != nil {
			return fmt.Errorf("service phase: %w", err)
		}
		svc = sm
		tr.adopt(side)
	}
	done, pre, post := svc.served, svc.pre, svc.post
	rc, err := replay(tr, cfg.w, s.js, s.body, done[0].raw, cfg.sz, cfg.tmp)
	if err != nil {
		return err
	}

	// Every span is in; group once, then each metric is a median by name.
	rec.TableBytes = rc.tableBytes
	rec.ReplayReps = make(map[string]int)
	self := selfTimes(tr.spans)
	durs, selfs := make(map[string][]float64), make(map[string][]float64)
	for _, sp := range tr.spans {
		if sp.Parent != 0 && tr.spans[sp.Parent-1].Name == "replay" {
			rec.ReplayReps[sp.Name]++
		}
		durs[sp.Name] = append(durs[sp.Name], float64(sp.dur())/1e6)
		selfs[sp.Name] = append(selfs[sp.Name], float64(self[sp.ID])/1e6)
	}
	rec.SelfMS = make(map[string]float64, len(selfs))
	for name, xs := range selfs {
		rec.SelfMS[name] = median(xs)
	}
	ms := func(name string) float64 { return median(durs[name]) }
	us := func(name string) float64 { return ms(name) * 1e3 }

	put("trace.child_sum_frac", childSumFrac(tr.spans, "job"))
	put("server.submit_ms", ms("http.submit"))
	put("server.queue_ms", ms("server.queue"))
	put("server.run_ms", ms("server.run"))
	put("server.notify_ms", ms("server.notify"))
	put("server.result_ms", ms("http.result"))
	put("server.overhead_ms", ms("server.run")-ms("server.runlocal"))
	jobs := float64(len(done))
	var sizes []float64
	fused := 0.0
	for _, d := range done {
		sizes = append(sizes, float64(len(d.raw)))
		if d.status.Fused {
			fused++
		}
	}
	put("server.result_bytes", median(sizes))
	put("server.fused_frac", fused/jobs)
	put("server.fused_batch_mean", ratio(post.batchSum-pre.batchSum, post.batchCount-pre.batchCount))
	put("server.alloc_kb_per_job", float64(post.allocBytes-pre.allocBytes)/1024/jobs)
	put("server.allocs_per_job", float64(post.allocs-pre.allocs)/jobs)
	hits, misses := post.cacheHits-pre.cacheHits, post.cacheMisses-pre.cacheMisses
	put("artifact.hit_ratio", ratio(hits, hits+misses))

	gather := ms("core.pipeline.mean")
	if s.js.Sampled() {
		gather = ms("core.pipeline.sampled")
	}
	n := float64(rc.lookups)
	lookupsPerS := n / (gather / 1e3)
	put("core.gather_ms", gather)
	put("core.ns_per_lookup", gather*1e6/n)
	put("core.lookups", n)
	put("core.mlookups_per_s", lookupsPerS/1e6)
	put("core.roofline_frac", lookupsPerS/(rc.randomMLoads*1e6))
	put("mem.random_mloads_per_s", rc.randomMLoads)
	put("mem.stream_gbps", rc.streamGBps)
	put("elt.gather_ns_per_occ", rc.gatherNS)
	put("elt.bytes_per_occ_computed", 12) // 4 B event ID read + 8 B loss read per lookup, by construction
	put("elt.sampled_ns_per_lookup", ms("core.pipeline.sampled")*1e6/n)
	put("core.sweep_ms", ms("core.sweep_pipeline"))
	put("core.sweep_compile_ms", ms("core.sweep_compile"))
	w := float64(rc.engineWorkers)
	put("metrics.summary_busy_ms", ms("metrics.summary")*w)
	put("metrics.ep_busy_ms", ms("metrics.ep")*w)
	put("core.ylt_busy_ms", ms("core.ylt")*w)
	put("metrics.sink_calls", float64(rc.sinkCalls))
	put("pricing.price_ms", ms("pricing.price"))
	put("spec.parse_us", us("spec.parse"))
	put("tenant.admit_us", us("tenant.admit"))
	put("store.submitted_us", us("store.submitted"))
	put("store.started_us", us("store.started"))
	put("store.done_us", us("store.done"))
	put("store.bytes_per_job", rc.journalBytes)
	put("artifact.build_ms", ms("artifact.engine")+ms("artifact.table"))
	put("artifact.hit_us", us("artifact.hit"))
	put("yet.generate_ms", ms("yet.generate"))
	put("yet.spill_write_ms", ms("yet.write"))
	put("yet.map_us", us("yet.map"))
	put("yet.bytes", float64(rc.yetBytes))
	shards := float64(rc.shards)
	if done[0].res.Shards > 0 {
		shards = float64(done[0].res.Shards) // the cluster's own count
	}
	perShard := ms("dist.exec_shard") + ms("dist.wire_encode") + ms("dist.wire_decode")
	put("dist.exec_shard_ms", ms("dist.exec_shard"))
	put("dist.wire_encode_us", us("dist.wire_encode"))
	put("dist.wire_decode_us", us("dist.wire_decode"))
	put("dist.wire_bytes_per_job", float64(rc.wireBytes)*shards)
	put("dist.overhead_ms", shards*perShard-ms("core.pipeline.sinks"))
	put("dist.shards_per_job", shards)
	put("proc.peak_rss_mb", peakRSSMB())
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
