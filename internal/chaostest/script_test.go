package chaostest

import (
	"strings"
	"testing"
)

// TestGenerateDeterministic: the whole point of the harness — the same
// (seed, config) must yield the byte-identical action trace, because
// the trace is the replay artifact.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7777} {
		a := Generate(DefaultConfig(seed))
		b := Generate(DefaultConfig(seed))
		if a.Trace() != b.Trace() {
			t.Fatalf("seed %d: two generations produced different traces", seed)
		}
		if a.Trace() == Generate(DefaultConfig(seed+1)).Trace() {
			t.Fatalf("seed %d and %d produced identical traces", seed, seed+1)
		}
	}
}

// TestGenerateFloors: the generator must guarantee the acceptance
// criteria's fault floors whatever the weighted stream happened to roll.
func TestGenerateFloors(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		cfg := DefaultConfig(seed)
		s := Generate(cfg)
		if s.Kills < cfg.MinWorkerKills {
			t.Errorf("seed %d: %d kills, floor %d", seed, s.Kills, cfg.MinWorkerKills)
		}
		if s.CoordRestarts < cfg.MinCoordinatorRestarts {
			t.Errorf("seed %d: %d coordinator restarts, floor %d", seed, s.CoordRestarts, cfg.MinCoordinatorRestarts)
		}
		if s.Submits == 0 {
			t.Errorf("seed %d: no submissions", seed)
		}
		if s.Actions[len(s.Actions)-1].Kind != ActSettle {
			t.Errorf("seed %d: script does not end in a settle", seed)
		}
	}
}

// TestGenerateScriptConsistency replays the generator's own state
// transitions and checks every action is legal at its position — kills
// target live workers, restarts target dead ones, worker submissions
// target live workers, job ordinals are dense.
func TestGenerateScriptConsistency(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		cfg := DefaultConfig(seed)
		s := Generate(cfg)
		alive := make([]bool, cfg.Workers)
		for i := range alive {
			alive[i] = true
		}
		submitted := 0
		for _, a := range s.Actions {
			switch a.Kind {
			case ActKillWorker:
				if !alive[a.Worker] {
					t.Fatalf("seed %d #%d: kills dead worker %d", seed, a.Seq, a.Worker)
				}
				alive[a.Worker] = false
			case ActRestartWorker:
				if alive[a.Worker] {
					t.Fatalf("seed %d #%d: restarts live worker %d", seed, a.Seq, a.Worker)
				}
				alive[a.Worker] = true
			case ActSubmitWorker:
				if !alive[a.Worker] {
					t.Fatalf("seed %d #%d: submits to dead worker %d", seed, a.Seq, a.Worker)
				}
				fallthrough
			case ActSubmit:
				if a.Job != submitted {
					t.Fatalf("seed %d #%d: job ordinal %d, want %d", seed, a.Seq, a.Job, submitted)
				}
				submitted++
			case ActBurst:
				if !alive[a.Worker] {
					t.Fatalf("seed %d #%d: bursts at dead worker %d", seed, a.Seq, a.Worker)
				}
				if a.Count < 2 {
					t.Fatalf("seed %d #%d: burst of %d jobs (min 2)", seed, a.Seq, a.Count)
				}
				if a.Job != submitted {
					t.Fatalf("seed %d #%d: burst ordinal %d, want %d", seed, a.Seq, a.Job, submitted)
				}
				submitted += a.Count
			case ActPoll, ActCancel:
				if a.Job < 0 || a.Job >= submitted {
					t.Fatalf("seed %d #%d: %s of unknown job %d", seed, a.Seq, a.Kind, a.Job)
				}
			case ActSkewHeartbeat:
				if alive[a.Worker] {
					t.Fatalf("seed %d #%d: skews heartbeat of live worker %d", seed, a.Seq, a.Worker)
				}
			}
		}
		// The restore phase must leave everything alive for the final
		// settle's fresh submissions.
		for i, ok := range alive {
			if !ok {
				t.Fatalf("seed %d: worker %d left dead at end of script", seed, i)
			}
		}
	}
}

// TestGeneratedSpecsParse: every spec the corpus emits must be valid
// under the service's own parser, sweeps must carry variants, and the
// spec must ride in the trace line (the replay contract).
func TestGeneratedSpecsParse(t *testing.T) {
	specs, bursts, sampled, meanOverSigma := 0, 0, 0, 0
	for seed := uint64(0); seed < 10; seed++ {
		s := Generate(DefaultConfig(seed))
		for _, a := range s.Actions {
			if a.Kind != ActSubmit && a.Kind != ActSubmitWorker && a.Kind != ActBurst {
				continue
			}
			specs++
			if a.Kind == ActBurst {
				bursts++
			}
			js, err := ParseSpec(a.Spec)
			if err != nil {
				t.Fatalf("seed %d #%d: generated spec rejected: %v", seed, a.Seq, err)
			}
			if js.Workers != 1 {
				t.Fatalf("seed %d #%d: corpus job has workers=%d, want the pinned 1", seed, a.Seq, js.Workers)
			}
			if a.Sweep != (js.Sweep != nil) {
				t.Fatalf("seed %d #%d: sweep flag %v but spec sweep %v", seed, a.Seq, a.Sweep, js.Sweep != nil)
			}
			if js.Sweep != nil && a.Kind == ActSubmit {
				t.Fatalf("seed %d #%d: sweep routed to the coordinator (rejected by design)", seed, a.Seq)
			}
			if js.Sampled() {
				sampled++
				if js.Lookup == "combined" {
					t.Fatalf("seed %d #%d: sampled spec paired with lookup=combined (rejected by the service)", seed, a.Seq)
				}
			} else if js.Uncertainty != nil {
				meanOverSigma++
			}
			if !strings.Contains(a.String(), a.Spec) {
				t.Fatalf("seed %d #%d: trace line does not carry the spec", seed, a.Seq)
			}
		}
	}
	if specs == 0 {
		t.Fatal("corpus produced no specs")
	}
	if bursts == 0 {
		t.Fatal("corpus produced no burst actions")
	}
	if sampled == 0 {
		t.Fatal("corpus produced no sampled-severity jobs")
	}
	if meanOverSigma == 0 {
		t.Fatal("corpus produced no explicit-mean jobs over sigma tables")
	}
}

// TestLongConfigScales sanity-checks the -chaos.long shape.
func TestLongConfigScales(t *testing.T) {
	short, long := DefaultConfig(1), LongConfig(1)
	if long.Actions <= short.Actions || long.MinWorkerKills <= short.MinWorkerKills {
		t.Fatalf("long config does not scale up: %+v vs %+v", long, short)
	}
	s := Generate(long)
	if s.Kills < long.MinWorkerKills || s.CoordRestarts < long.MinCoordinatorRestarts {
		t.Fatalf("long script misses floors: %d kills, %d coord restarts", s.Kills, s.CoordRestarts)
	}
}
