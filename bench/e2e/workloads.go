package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"github.com/ralab/are/internal/spec"
)

// sizes fixes the problem shapes. The tiny set exists for the package's
// own tests, which exercise every workload's code path in milliseconds;
// every reported number comes from the full set.
type sizes struct {
	// mid portfolio: 6 ELTs, layer a over 1-6 and layer b over 1-3.
	midCatalog, midRecords, midTrials, midEvents int
	// service.small
	smallCatalog, smallRecords, smallTrials, smallEvents int
	// engine.paper: one layer over paperELTs tables.
	paperCatalog, paperELTs, paperRecords, paperTrials, paperEvents int
	// shardTrials is the coordinator's target shard size.
	shardTrials int
	// refTrials is the prefix of engine.paper held to core.Reference.
	refTrials int
	// memArrayBytes fixes the memory microbenchmark array's size; 0 sizes
	// it from the machine (see memArrayBytes).
	memArrayBytes int
}

var (
	fullSizes = sizes{
		midCatalog: 100_000, midRecords: 5_000, midTrials: 20_000, midEvents: 100,
		smallCatalog: 15_000, smallRecords: 1_500, smallTrials: 200, smallEvents: 10,
		paperCatalog: 2_000_000, paperELTs: 15, paperRecords: 20_000, paperTrials: 10_000, paperEvents: 1000,
		shardTrials: 5_000, refTrials: 200,
	}
	tinySizes = sizes{
		midCatalog: 2_000, midRecords: 200, midTrials: 400, midEvents: 10,
		smallCatalog: 1_000, smallRecords: 100, smallTrials: 50, smallEvents: 5,
		paperCatalog: 5_000, paperELTs: 3, paperRecords: 300, paperTrials: 300, paperEvents: 20,
		shardTrials: 100, refTrials: 50, memArrayBytes: 1 << 20,
	}
)

// loopKind says how a workload's clients issue jobs. Every loop is closed:
// a client sends its next request only after the previous one completed.
type loopKind string

const (
	loopLibrary loopKind = "closed-library" // library calls back to back, no service
	loopSerial  loopKind = "closed"         // each client: submit, wait, fetch, repeat
	loopBurst   loopKind = "closed-burst"   // bursts of 8: 2 connections x 4 POSTs, then collect
)

const burstSize = 8

// workload is one named set of inputs. jobs(g, sz) returns the function
// that builds the i-th job of a client, so that a workload's whole job
// stream is a pure function of the seed.
type workload struct {
	name string
	why  string
	loop loopKind
	// clients is the number of client goroutines and connections; never
	// more than the sandbox's two processors.
	clients int
	// jobWorkers and engineWorkers configure the server under test.
	jobWorkers, engineWorkers int
	// cluster runs the job through a coordinator and two worker-role
	// servers instead of one single-role server.
	cluster bool
	// cycle is how many distinct jobs each client cycles through; the
	// set-up runs each once before measuring, so that the loop meets warm
	// artifacts.
	cycle int
	// distinct marks a stream that never repeats a spec, so results cannot
	// be compared across repeats and every job pays the cold path.
	distinct bool
	// perSetup splits the untraced run's measuring time evenly over its
	// first three set-ups instead of measuring only on the last. Where the
	// tables of one set-up land in physical memory moves engine.paper's
	// job time by +-1.5% (it is steady to +-0.5% within one set-up); the
	// median over three placements repeats better than any one of them.
	perSetup bool
	jobs     func(g gen, sz sizes) func(client, i int) *spec.Job
}

var workloads = []workload{
	{
		name: "engine.paper",
		why:  "The paper's shape at 1/100 trials through the library: a memory-bound gather over tables 4x the LLC is >95% of a job and no service code runs, so kernel work shows here and service work must not.",
		loop: loopLibrary, clients: 1, cycle: 1, perSetup: true,
		jobs: func(g gen, sz sizes) func(int, int) *spec.Job {
			js := paperJob(g, sz)
			return func(int, int) *spec.Job { return js }
		},
	},
	{
		name: "service.quote",
		why:  "The phone-call scenario on warm artifacts: cache-resident gather, EP sketches, pricing and service overhead are all visible in one latency.",
		loop: loopSerial, clients: 1, jobWorkers: 1, engineWorkers: 2, cycle: 1,
		jobs: func(g gen, sz sizes) func(int, int) *spec.Job {
			js := midJob(g, sz, 0, g.sub("yet", 0))
			return func(int, int) *spec.Job { return js }
		},
	},
	{
		name: "service.small",
		why:  "The engine is <2% of the job: parse, auth, journal fsync, queue and fuse-wait, SSE notify and encode are the whole cost, so service-layer work shows here and kernel work must not.",
		loop: loopSerial, clients: 2, jobWorkers: 2, engineWorkers: 1, cycle: smallSeedsPerClient,
		jobs: func(g gen, sz sizes) func(int, int) *spec.Job {
			return func(client, i int) *spec.Job {
				// Each client cycles its own pre-warmed YET seeds, so two
				// queued jobs never share a fuse key and never miss.
				return smallJob(g, sz, g.sub("yet", client*smallSeedsPerClient+i%smallSeedsPerClient))
			}
		},
	},
	{
		name: "service.sweep8",
		why:  "The same core layer used differently: one gather fanned out to 8 term programs, 8 sink sets, 8x2 quotes and an 8x larger result body.",
		loop: loopSerial, clients: 1, jobWorkers: 1, engineWorkers: 2, cycle: 1,
		jobs: func(g gen, sz sizes) func(int, int) *spec.Job {
			js := midJob(g, sz, 0, g.sub("yet", 0))
			js.Sweep = &spec.SweepSpec{}
			for k := 0; k < 8; k++ {
				ret := 1e5 + float64(k)*5e4
				js.Sweep.Variants = append(js.Sweep.Variants, spec.VariantSpec{
					Name: fmt.Sprintf("ret-%d", k), OccRetention: &ret,
				})
			}
			return func(int, int) *spec.Job { return js }
		},
	},
	{
		name: "service.burst8",
		why:  "The same scheduler used differently from service.small: fuse-wait here buys a fused batch of 8, so a change that trims queueing for lone jobs must hold throughput here.",
		loop: loopBurst, clients: 2, jobWorkers: 1, engineWorkers: 2, cycle: 1,
		jobs: func(g gen, sz sizes) func(int, int) *spec.Job {
			js := midJob(g, sz, 0, g.sub("yet", 0))
			return func(int, int) *spec.Job { return js }
		},
	},
	{
		name: "service.cold",
		why:  "Bypasses the artifact cache: every job names never-seen ELT and YET seeds, so YET generation, spill write and mmap, ELT generation and engine compile are most of the job and show nowhere warm.",
		loop: loopSerial, clients: 1, jobWorkers: 1, engineWorkers: 2, cycle: 1, distinct: true,
		jobs: func(g gen, sz sizes) func(int, int) *spec.Job {
			return func(_, i int) *spec.Job { return midJob(g, sz, 1+i, g.sub("yet", 1+i)) }
		},
	},
	{
		name: "service.sampled",
		why:  "The same gather layer compute-bound instead of memory-bound (z-column fill, exp); the gap to service.quote is the price of sampled severities.",
		loop: loopSerial, clients: 1, jobWorkers: 1, engineWorkers: 2, cycle: 1,
		jobs: func(g gen, sz sizes) func(int, int) *spec.Job {
			js := midJob(g, sz, 0, g.sub("yet", 0))
			for i := range js.Portfolio.ELTs {
				js.Portfolio.ELTs[i].Generate.Sigma = 0.5
			}
			js.Uncertainty = &spec.UncertaintySpec{Mode: "sampled", Seed: g.sub("severity", 0)}
			return func(int, int) *spec.Job { return js }
		},
	},
	{
		name: "cluster.shard2",
		why:  "The sharded path: dispatch, ARSB wire encode and decode, and merge sit on top of the same gather; the gap to service.quote's run time is the distribution overhead.",
		loop: loopSerial, clients: 1, jobWorkers: 1, engineWorkers: 1, cycle: 1, cluster: true,
		jobs: func(g gen, sz sizes) func(int, int) *spec.Job {
			js := midJob(g, sz, 0, g.sub("yet", 0))
			js.Workers = 0 // the worker nodes' EngineWorkers (1 each) govern
			return func(int, int) *spec.Job { return js }
		},
	},
}

const smallSeedsPerClient = 4

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// gen derives every ELT, YET and sampling seed from the benchmark seed.
type gen struct{ seed uint64 }

// sub returns the seed of stream (label, i): an FNV-1a hash of the
// benchmark seed, the label and the index, so that streams are distinct
// from one another and change wholesale with the benchmark seed.
func (g gen) sub(label string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", g.seed, label, i)
	return h.Sum64()
}

func limit(v float64) *spec.Limit { l := spec.Limit(v); return &l }

func generatedELTs(g gen, n, records, generation int) []spec.ELTSpec {
	elts := make([]spec.ELTSpec, n)
	for i := range elts {
		elts[i] = spec.ELTSpec{
			ID:       uint32(i + 1),
			Generate: &spec.GenerateSpec{Seed: g.sub("elt", generation*n+i), NumRecords: records},
		}
	}
	return elts
}

// midJob is the issue's "mid" job: 6 generated ELTs, layer a over all six
// and layer b over the first three with occurrence and aggregate terms,
// direct lookup, quoted, two engine workers. generation selects the ELT
// seed set (service.cold walks generations; everyone else uses 0).
func midJob(g gen, sz sizes, generation int, yetSeed uint64) *spec.Job {
	return &spec.Job{
		Portfolio: &spec.File{
			CatalogSize: sz.midCatalog,
			ELTs:        generatedELTs(g, 6, sz.midRecords, generation),
			Layers: []spec.LayerSpec{
				{ID: 1, Name: "a", ELTs: []uint32{1, 2, 3, 4, 5, 6},
					Terms: &spec.LayerTermsSpec{OccRetention: 1e5, OccLimit: limit(4e6)}},
				{ID: 2, Name: "b", ELTs: []uint32{1, 2, 3},
					Terms: &spec.LayerTermsSpec{OccRetention: 5e4, OccLimit: limit(2e6), AggRetention: 1e5}},
			},
		},
		YET:     spec.YETSpec{Seed: yetSeed, Trials: sz.midTrials, FixedEvents: sz.midEvents},
		Metrics: spec.MetricsSpec{Quotes: true},
		Workers: 2,
		Lookup:  "direct",
	}
}

func smallJob(g gen, sz sizes, yetSeed uint64) *spec.Job {
	return &spec.Job{
		Portfolio: &spec.File{
			CatalogSize: sz.smallCatalog,
			ELTs:        generatedELTs(g, 2, sz.smallRecords, 0),
			Layers: []spec.LayerSpec{
				{ID: 1, Name: "s", ELTs: []uint32{1, 2},
					Terms: &spec.LayerTermsSpec{OccRetention: 1e5, OccLimit: limit(4e6)}},
			},
		},
		YET:    spec.YETSpec{Seed: yetSeed, Trials: sz.smallTrials, FixedEvents: sz.smallEvents},
		Lookup: "direct",
	}
}

func paperJob(g gen, sz sizes) *spec.Job {
	ids := make([]uint32, sz.paperELTs)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	return &spec.Job{
		Portfolio: &spec.File{
			CatalogSize: sz.paperCatalog,
			ELTs:        generatedELTs(g, sz.paperELTs, sz.paperRecords, 0),
			Layers: []spec.LayerSpec{
				{ID: 1, Name: "paper", ELTs: ids,
					Terms: &spec.LayerTermsSpec{OccRetention: 1e5, OccLimit: limit(4e6)}},
			},
		},
		YET:     spec.YETSpec{Seed: g.sub("yet", 0), Trials: sz.paperTrials, FixedEvents: sz.paperEvents},
		Metrics: spec.MetricsSpec{Quotes: true},
		Workers: nproc(),
		Lookup:  "direct",
	}
}

// jobBody is the wire form of a job. Struct fields marshal in declaration
// order, so equal specs give equal bytes.
func jobBody(js *spec.Job) []byte {
	b, err := json.Marshal(js)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal job: %v", err)) // finite limits only: a bug if it fails
	}
	return b
}

// lookups is the exact number of occurrence x ELT lookups one job prices.
func lookups(js *spec.Job) int64 {
	occ := int64(js.YET.Trials) * int64(js.YET.FixedEvents)
	var n int64
	for _, l := range js.Portfolio.Layers {
		n += int64(len(l.ELTs)) * occ
	}
	return n
}
