package dist

// Oracle coverage for the binary shard-result frame: encode→decode must
// reproduce every float bit, truncated or corrupt frames must error
// (never mis-decode), and the negotiated and JSON paths must agree.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/ralab/are/internal/core"
)

func wireResult(t *testing.T, trials int, withYLT bool) *ShardResult {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	res := &ShardResult{
		Lo: 100, Hi: 100 + trials, LayerIDs: []uint32{3, 9},
		ElapsedMS: 42, YETCached: true, EngineCached: false,
	}
	if withYLT {
		st := &core.YLTState{
			LayerIDs:   []uint32{3, 9},
			NumTrials:  trials,
			AggLoss:    make([][]float64, 2),
			MaxOccLoss: make([][]float64, 2),
		}
		for l := 0; l < 2; l++ {
			st.AggLoss[l] = make([]float64, trials)
			st.MaxOccLoss[l] = make([]float64, trials)
			for i := range st.AggLoss[l] {
				// Adversarial finite bit patterns (denormals, extremes):
				// finite is the engine's output contract, and the JSON
				// fallback cannot carry NaN/Inf at all.
				v := math.Float64frombits(rng.Uint64())
				for math.IsNaN(v) || math.IsInf(v, 0) {
					v = math.Float64frombits(rng.Uint64())
				}
				st.AggLoss[l][i] = v
				st.MaxOccLoss[l][i] = rng.NormFloat64() * 1e9
			}
		}
		res.YLT = st
	}
	return res
}

// TestShardWireRoundTripBitwise: every YLT cell and every header field
// survives the binary frame bit-for-bit.
func TestShardWireRoundTripBitwise(t *testing.T) {
	for _, withYLT := range []bool{true, false} {
		res := wireResult(t, 1337, withYLT)
		var buf bytes.Buffer
		if err := EncodeShardResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeShardResult(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Lo != res.Lo || got.Hi != res.Hi || got.ElapsedMS != res.ElapsedMS ||
			got.YETCached != res.YETCached || got.EngineCached != res.EngineCached {
			t.Fatalf("header fields mangled: %+v", got)
		}
		if (got.YLT != nil) != withYLT {
			t.Fatalf("YLT presence: got %v, want %v", got.YLT != nil, withYLT)
		}
		if !withYLT {
			continue
		}
		if got.YLT.NumTrials != res.YLT.NumTrials || len(got.YLT.AggLoss) != len(res.YLT.AggLoss) {
			t.Fatalf("YLT shape mangled")
		}
		for l := range res.YLT.AggLoss {
			if got.YLT.LayerIDs[l] != res.YLT.LayerIDs[l] {
				t.Fatalf("layer ID %d mangled", l)
			}
			for i := range res.YLT.AggLoss[l] {
				if math.Float64bits(got.YLT.AggLoss[l][i]) != math.Float64bits(res.YLT.AggLoss[l][i]) ||
					math.Float64bits(got.YLT.MaxOccLoss[l][i]) != math.Float64bits(res.YLT.MaxOccLoss[l][i]) {
					t.Fatalf("YLT cell (%d, %d) not bitwise identical", l, i)
				}
			}
		}
		// The binary header must say exactly what the JSON path would,
		// and carry nothing but the shard's range and run facts.
		jb, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON ShardResult
		if err := json.Unmarshal(jb, &viaJSON); err != nil {
			t.Fatal(err)
		}
		viaJSON.YLT, got.YLT = nil, nil
		if !reflect.DeepEqual(&viaJSON, got) {
			t.Fatalf("header diverges between JSON and binary paths: %+v vs %+v", viaJSON, *got)
		}
		hlen := binary.LittleEndian.Uint32(buf.Bytes()[6:])
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes()[10:10+hlen], &keys); err != nil {
			t.Fatal(err)
		}
		want := []string{"elapsedMs", "engineCached", "hi", "layerIds", "lo", "yetCached"}
		var k []string
		for key := range keys {
			k = append(k, key)
		}
		sort.Strings(k)
		if !slices.Equal(k, want) {
			t.Fatalf("header keys %v, want %v", k, want)
		}
	}
}

// TestShardWireRejectsCorrupt: truncations at every section boundary
// and corrupted magic/version bytes must error, not mis-decode.
func TestShardWireRejectsCorrupt(t *testing.T) {
	res := wireResult(t, 64, true)
	var buf bytes.Buffer
	if err := EncodeShardResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	for _, cut := range []int{0, 3, 9, 10, len(frame) / 2, len(frame) - 1} {
		if _, err := DecodeShardResult(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(frame))
		}
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := DecodeShardResult(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic decoded without error")
	}
	bad = append([]byte(nil), frame...)
	bad[4] = 99
	if _, err := DecodeShardResult(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown version decoded without error")
	}
}
