package dist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/dist"
)

// FuzzDecodeShardResult feeds arbitrary bytes to the binary shard-result
// decoder, which reads what a worker sent over the network. It must
// never panic, and a frame it accepts must re-encode and decode to an
// equal ShardResult.
func FuzzDecodeShardResult(f *testing.F) {
	js := e2eJob(f, 40, false)
	res, err := dist.ExecShard(context.Background(), artifact.NewCache(2), dist.ShardRequest{Job: js, Lo: 10, Hi: 30}, 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dist.EncodeShardResult(&buf, res); err != nil {
		f.Fatal(err)
	}
	frame := buf.Bytes()
	f.Add(frame)
	f.Add(frame[:len(frame)-5])
	oversized := slices.Clone(frame[:10])
	binary.LittleEndian.PutUint32(oversized[6:], 1<<20+1) // past maxShardHeader
	f.Add(oversized)
	f.Add(append(slices.Clone(frame), 0xde, 0xad))
	// A YLT section claiming 2^50 trials it does not carry: the decoder
	// must fail on the short read, not size a column from the claim.
	hdr := []byte(`{"lo":0,"hi":1125899906842624}`)
	huge := append([]byte("ARSB"), frame[4], 1)
	huge = binary.LittleEndian.AppendUint32(huge, uint32(len(hdr)))
	huge = append(huge, hdr...)
	huge = binary.LittleEndian.AppendUint32(huge, 1)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<50)
	f.Add(binary.LittleEndian.AppendUint32(huge, 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := dist.DecodeShardResult(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := dist.EncodeShardResult(&again, got); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		back, err := dist.DecodeShardResult(&again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !sameShard(got, back) {
			t.Fatalf("round trip changed the shard: %+v vs %+v", got, back)
		}
	})
}

// sameShard is ShardResult equality with YLT cells compared as bits, so
// a NaN the frame carried compares equal to itself.
func sameShard(a, b *dist.ShardResult) bool {
	ha, hb := *a, *b
	ha.YLT, hb.YLT = nil, nil
	if !reflect.DeepEqual(ha, hb) || (a.YLT == nil) != (b.YLT == nil) {
		return false
	}
	if a.YLT == nil {
		return true
	}
	x, y := a.YLT, b.YLT
	if x.NumTrials != y.NumTrials || !slices.Equal(x.LayerIDs, y.LayerIDs) {
		return false
	}
	sameCols := func(p, q [][]float64) bool {
		if len(p) != len(q) {
			return false
		}
		for l := range p {
			if !slices.EqualFunc(p[l], q[l], func(u, v float64) bool {
				return math.Float64bits(u) == math.Float64bits(v)
			}) {
				return false
			}
		}
		return true
	}
	return sameCols(x.AggLoss, y.AggLoss) && sameCols(x.MaxOccLoss, y.MaxOccLoss)
}
