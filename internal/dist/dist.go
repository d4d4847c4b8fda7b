// Package dist is the distributed execution subsystem: it shards one
// analysis job's trial range across a cluster of ared worker processes
// and reassembles their Year Loss Tables into exactly what a single
// node would have produced.
//
// The paper scales aggregate risk analysis within one parallel machine;
// this package is the step past the machine boundary its conclusion
// points at. The design leans on two properties the rest of the repo
// already guarantees:
//
//   - Trial-seeded generation (yet.GenerateRange): trial i of a Year
//     Event Table is a pure function of (seed, i), so a worker can
//     materialise exactly its shard [lo, hi) — no table distribution,
//     no coordination, bitwise identical to the full table's slice.
//   - Shard-range execution (core.NewTableRangeSource + FullYLT state
//     export): every (layer, trial) cell is independent, so per-shard
//     Year Loss Tables reassemble bitwise into the single-node Result,
//     and the coordinator renders every metric from that Result exactly
//     as a local run renders its own.
//
// Topology: one coordinator, N workers, JSON over HTTP. Workers
// register with the coordinator and heartbeat; the coordinator plans a
// job into contiguous trial shards, dispatches them to live workers
// (POST /v1/shards, synchronous), retries failed shards on other
// workers, and reassembles the shards' YLTs in trial order — so the
// final result is independent of which worker ran what and of
// completion order. Each worker runs shards through the same artifact
// cache as its direct jobs: the engine compiles once per portfolio spec
// and each YET shard generates once, however many times it is
// re-dispatched.
//
// Package server mounts the two HTTP surfaces (worker's /v1/shards,
// coordinator's /v1/cluster) and cmd/ared selects the role; this
// package holds the protocol, the shard executor, the coordinator and
// the reassembly, all fully testable in-process.
package dist
