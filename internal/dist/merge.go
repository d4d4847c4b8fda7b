package dist

import (
	"fmt"

	"github.com/ralab/are/internal/core"
)

// Merged is a cluster execution folded back into single-node shape: the
// reassembled Result, bitwise the Year Loss Tables one local pass over
// every trial fills, from which the coordinator renders the job exactly
// as a local run renders its own.
type Merged struct {
	Trials int
	Result *core.Result

	Shards      int // shards planned
	Retried     int // dispatch attempts that failed and were retried
	WorkersUsed int // distinct workers that completed at least one shard
}

// mergeShards reassembles per-shard YLTs into one Merged, in trial
// order whatever the completion order. The shards must tile [0, trials)
// exactly and agree on layer identity (core.AssembleResult checks both)
// — violations mean lost or duplicated work and fail the job rather
// than skewing its numbers.
func mergeShards(trials int, results []*ShardResult) (*Merged, error) {
	shards := make([]core.ShardYLT, 0, len(results))
	for _, r := range results {
		if r.YLT == nil {
			return nil, fmt.Errorf("dist: merge: shard [%d, %d) is missing its YLT", r.Lo, r.Hi)
		}
		if r.YLT.NumTrials != r.Hi-r.Lo {
			return nil, fmt.Errorf("dist: merge: shard [%d, %d) carries %d trials", r.Lo, r.Hi, r.YLT.NumTrials)
		}
		shards = append(shards, core.ShardYLT{Lo: r.Lo, State: *r.YLT})
	}
	res, err := core.AssembleResult(trials, shards)
	if err != nil {
		return nil, fmt.Errorf("dist: merge: %w", err)
	}
	return &Merged{Trials: trials, Result: res}, nil
}
