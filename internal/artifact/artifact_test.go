package artifact

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/ralab/are/internal/spec"
)

func testJob(t *testing.T, seed uint64, trials int) *spec.Job {
	t.Helper()
	body := fmt.Sprintf(`{
	  "portfolio": {
	    "catalogSize": 10000,
	    "elts": [{"id": 1, "generate": {"seed": 5, "numRecords": 800}}],
	    "layers": [{"id": 1, "elts": [1], "terms": {"occRetention": 1e5, "occLimit": 3e6}}]
	  },
	  "yet": {"seed": %d, "trials": %d, "meanEvents": 25}
	}`, seed, trials)
	j, err := spec.ParseJob(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8)
	var builds int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Get("k", func() (any, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times", builds)
	}
}

func TestCacheDoesNotCacheFailures(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("boom")
	if _, _, err := c.Get("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.Get("k", func() (any, error) { return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("retry after failure: v=%v hit=%v err=%v", v, hit, err)
	}
}

// ShardFor must hand back exactly the corresponding slice of the full
// table — the property the whole distributed design rests on.
func TestShardForMatchesTableFor(t *testing.T) {
	c := NewCache(16)
	js := testJob(t, 3, 400)
	full, hit, err := TableFor(c, js)
	if err != nil || hit {
		t.Fatalf("TableFor: hit=%v err=%v", hit, err)
	}
	shard, hit, err := ShardFor(c, js, 150, 300)
	if err != nil || hit {
		t.Fatalf("ShardFor: hit=%v err=%v", hit, err)
	}
	want := full.Slice(150, 300)
	if shard.NumTrials() != want.NumTrials() || shard.NumOccurrences() != want.NumOccurrences() {
		t.Fatalf("shard shape (%d, %d) != slice (%d, %d)",
			shard.NumTrials(), shard.NumOccurrences(), want.NumTrials(), want.NumOccurrences())
	}
	for i := 0; i < shard.NumTrials(); i++ {
		if got, exp := shard.TrialEvents(i), want.TrialEvents(i); !slices.Equal(got, exp) {
			t.Fatalf("trial %d: %v != %v", i, got, exp)
		}
	}
	// Same range again: a cache hit, same object.
	again, hit, err := ShardFor(c, js, 150, 300)
	if err != nil || !hit || again != shard {
		t.Fatalf("repeat ShardFor: hit=%v same=%v err=%v", hit, again == shard, err)
	}
}

func TestEngineForSharesPortfolioEntry(t *testing.T) {
	c := NewCache(16)
	js := testJob(t, 1, 50)
	eng, hit, err := EngineFor(c, js)
	if err != nil || hit {
		t.Fatalf("EngineFor: hit=%v err=%v", hit, err)
	}
	if eng.Eng == nil || eng.P == nil || eng.P.P == nil {
		t.Fatal("engine artifact incomplete")
	}
	// The portfolio build is its own entry: PortfolioFor now hits.
	p, hit, err := PortfolioFor(c, js)
	if err != nil || !hit {
		t.Fatalf("PortfolioFor after EngineFor: hit=%v err=%v", hit, err)
	}
	if p != eng.P {
		t.Fatal("engine does not share the cached portfolio")
	}
}

func TestLookupKindNames(t *testing.T) {
	for name, want := range map[string]string{
		"": "direct", "direct": "direct", "sorted": "sorted",
		"hash": "hash", "cuckoo": "cuckoo", "combined": "combined",
	} {
		if got := LookupKind(name).String(); got != want {
			t.Errorf("LookupKind(%q) = %s, want %s", name, got, want)
		}
	}
}
