// Package chaostest is the reusable black-box chaos harness behind
// test/chaos: it builds the real cmd/ared binary, spawns a coordinator
// and N workers as separate OS processes on OS-assigned ports, routes
// shard dispatch through in-harness TCP proxies so the network can be
// partitioned or slowed per worker, and drives the cluster with a
// seeded, fully pre-generated stream of weighted actions — submissions
// (plain, quoted, sweep), polls, cancellations, kill -9, restarts,
// coordinator restarts, partitions, slow links and spoofed heartbeats.
//
// Determinism is the point: the entire action script is a pure function
// of (seed, config), generated up front by simulating the only state the
// generator depends on (which worker slots are alive or partitioned, how
// many jobs have been submitted). Re-running a failing seed therefore
// replays the identical action trace; the trace and every process log
// land in an artifact directory for post-mortems.
//
// At every quiescent point (a "settle" action) the harness heals the
// network, waits for every outstanding job to reach a terminal state,
// and asserts the invariants the repository pins elsewhere in-process:
//
//   - every completed job, sharded by the coordinator or run on one
//     worker, reproduces a single-node library run of the same spec
//     bitwise in every reported float: every number renders from the
//     YLT, and the reassembled one is bitwise the local one, so equal
//     results certify bitwise reassembly across the wire;
//   - every submitted job reaches exactly one terminal state — once a
//     job is observed done/failed/cancelled it never changes state, and
//     a done job's result bytes never change (no loss, no
//     double-completion). Jobs that disappear with a coordinator or
//     worker restart are accounted as lost-to-restart (the in-memory
//     job table is the documented default) — disappearing any other
//     way fails.
//
// With Config.Durable the coordinator runs with -data-dir, and the
// lost-to-restart allowance is withdrawn entirely: after every kill -9
// plus restart, each pre-kill job must still exist — finished jobs must
// serve bitwise-identical result bytes from the recovered journal, and
// interrupted jobs must re-run under their original IDs to a result the
// oracle verifies. A single disappearance fails the run.
//
// Teardown asserts clean exits: every surviving process must drain and
// exit zero on SIGTERM; a wedged process gets SIGQUIT so its goroutine
// dump lands in the logs, and the test fails. Finally the harness
// re-binds every port the cluster used to prove nothing leaked.
package chaostest

import "time"

// Config sizes one chaos run. The zero value is not runnable; use
// DefaultConfig (the CI smoke shape) or LongConfig as a base.
type Config struct {
	// Seed drives everything random: the action mix, the job corpus,
	// fault targets. Same seed + same config = same script.
	Seed uint64

	// Workers is the number of worker slots in the cluster.
	Workers int

	// Actions is the length of the randomized action phase; the script
	// appends a deterministic restore phase (heal + restart + a few
	// final submissions + settle) after it.
	Actions int

	// SettleEvery inserts a quiescent settle/verify point after this
	// many randomized actions.
	SettleEvery int

	// MinWorkerKills and MinCoordinatorRestarts are floors the generator
	// enforces: if the weighted stream did not produce them, they are
	// appended (deterministically) before the restore phase.
	MinWorkerKills         int
	MinCoordinatorRestarts int

	// MaxTrials caps generated jobs' yet.trials; small counts keep the
	// oracle (a single-node library run per distinct spec) cheap.
	MaxTrials int

	// FinalSubmits is how many jobs the restore phase submits against
	// the healed cluster before the last settle, so a run always ends
	// with fresh end-to-end completions.
	FinalSubmits int

	// MinDone is the least number of jobs that must complete ("done")
	// over the whole run for it to count as a meaningful exercise.
	MinDone int

	// SettleTimeout bounds one settle point's wait for outstanding jobs
	// to reach terminal states.
	SettleTimeout time.Duration

	// ArtifactDir receives the action trace and per-process logs; empty
	// selects a temp directory (reported on failure).
	ArtifactDir string

	// Durable runs the coordinator with -data-dir (under ArtifactDir),
	// which changes the acceptance contract: coordinator restarts may
	// not lose anything. Every pre-kill job must be recovered — done
	// jobs with bitwise-stable result bytes, open jobs re-run to
	// oracle-verified completion under their original IDs.
	Durable bool
}

// DefaultConfig is the CI smoke shape: ~30s wall time, guaranteed to
// kill at least two workers and restart the coordinator at least once.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:                   seed,
		Workers:                3,
		Actions:                220,
		SettleEvery:            45,
		MinWorkerKills:         3,
		MinCoordinatorRestarts: 2,
		MaxTrials:              4000,
		FinalSubmits:           5,
		MinDone:                10,
		SettleTimeout:          90 * time.Second,
	}
}

// DurableConfig is the CI smoke shape with the crash-safe job store
// on: same faults, stricter contract (zero jobs lost to coordinator
// restarts).
func DurableConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.Durable = true
	return c
}

// LongConfig is the on-demand deep soak: minutes of wall time, more
// faults, a bigger corpus.
func LongConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.Actions = 1200
	c.SettleEvery = 80
	c.MinWorkerKills = 10
	c.MinCoordinatorRestarts = 4
	c.MaxTrials = 12000
	c.FinalSubmits = 10
	c.MinDone = 50
	c.SettleTimeout = 5 * time.Minute
	return c
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Actions <= 0 {
		c.Actions = 60
	}
	if c.SettleEvery <= 0 {
		c.SettleEvery = 20
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 1200
	}
	if c.FinalSubmits <= 0 {
		c.FinalSubmits = 3
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 90 * time.Second
	}
}
