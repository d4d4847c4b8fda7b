package dist

// Binary shard-result wire format. A shard response's bulk is its
// materialised Year Loss Tables — two float64 columns per layer — and
// shipping those as JSON costs a decimal formatting pass on the worker,
// a reflection decode on the coordinator, and ~3x the bytes. The binary
// form keeps the small, evolving metadata as a JSON header (so protocol
// fields stay self-describing) and follows it with the raw little-endian
// column data:
//
//	offset 0  magic "ARSB"
//	       4  version byte (2)
//	       5  flags byte (bit 0: YLT section present)
//	       6  uint32 LE header length H
//	      10  H bytes of JSON: ShardResult with the ylt field omitted
//	then, when the YLT flag is set:
//	          uint32 LE layer count L, uint64 LE trial count T
//	          L x uint32 LE layer IDs
//	          L x (T x float64 LE) aggregate-loss columns
//	          L x (T x float64 LE) max-occurrence-loss columns
//
// Floats travel as their exact IEEE-754 bits, so a binary round trip is
// bitwise identical by construction — the same guarantee the JSON path
// gets from strconv's shortest-form round-tripping, minus the parsing.
// Version 1 headers also carried online-sink states (summary, ep);
// version 2 dropped them, because the YLT is all a coordinator renders
// from, and a peer of the other version fails its decode closed.
// Content negotiation: a coordinator advertises the format with
// `Accept: application/x-are-shard`; workers that predate it (or a
// request without the header) answer JSON, and the coordinator keys its
// decode off the response Content-Type, so mixed-version clusters
// interoperate.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/ralab/are/internal/core"
)

// ShardMediaType is the content type of the binary shard-result format,
// offered by coordinators via Accept and confirmed by workers via
// Content-Type.
const ShardMediaType = "application/x-are-shard"

const (
	shardMagic   = "ARSB"
	shardVersion = 2

	flagYLT = 1 << 0

	// maxShardHeader bounds the JSON header of a decoded response; a
	// shard's metadata is hundreds of bytes, so anything near this is a
	// corrupt or hostile frame.
	maxShardHeader = 1 << 20
)

// ErrShardWire reports a malformed binary shard frame.
var ErrShardWire = errors.New("dist: malformed binary shard frame")

// wireChunk is the scratch through which float columns are staged to
// and from the wire, bounding encoder memory regardless of shard size.
const wireChunk = 32 << 10 // floats per stage, 256 KiB

// EncodeShardResult writes res in the binary shard format. The YLT
// columns are staged through one fixed scratch buffer, so encoding a
// multi-megabyte shard never buffers more than the header plus one
// chunk.
func EncodeShardResult(w io.Writer, res *ShardResult) error {
	hdr := *res
	hdr.YLT = nil
	hjson, err := json.Marshal(&hdr)
	if err != nil {
		return fmt.Errorf("dist: encode shard header: %w", err)
	}

	pre := make([]byte, 0, 10+len(hjson))
	pre = append(pre, shardMagic...)
	pre = append(pre, shardVersion)
	var flags byte
	if res.YLT != nil {
		flags |= flagYLT
	}
	pre = append(pre, flags)
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(hjson)))
	pre = append(pre, hjson...)
	if _, err := w.Write(pre); err != nil {
		return err
	}
	if res.YLT == nil {
		return nil
	}

	st := res.YLT
	for _, col := range st.AggLoss {
		if len(col) != st.NumTrials {
			return fmt.Errorf("dist: encode shard: ragged YLT (layer column %d, want %d trials)", len(col), st.NumTrials)
		}
	}
	for _, col := range st.MaxOccLoss {
		if len(col) != st.NumTrials {
			return fmt.Errorf("dist: encode shard: ragged YLT (layer column %d, want %d trials)", len(col), st.NumTrials)
		}
	}
	if len(st.MaxOccLoss) != len(st.AggLoss) || len(st.LayerIDs) != len(st.AggLoss) {
		return errors.New("dist: encode shard: YLT layer shapes disagree")
	}

	var scratch [8 * wireChunk]byte
	b := scratch[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.LayerIDs)))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.NumTrials))
	for _, id := range st.LayerIDs {
		b = binary.LittleEndian.AppendUint32(b, id)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	if err := writeColumns(w, st.AggLoss, scratch[:]); err != nil {
		return err
	}
	return writeColumns(w, st.MaxOccLoss, scratch[:])
}

func writeColumns(w io.Writer, cols [][]float64, scratch []byte) error {
	for _, col := range cols {
		for len(col) > 0 {
			n := len(col)
			if n > wireChunk {
				n = wireChunk
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(scratch[8*i:], math.Float64bits(col[i]))
			}
			if _, err := w.Write(scratch[:8*n]); err != nil {
				return err
			}
			col = col[n:]
		}
	}
	return nil
}

// DecodeShardResult reads one binary shard frame from r. The returned
// result owns freshly allocated columns (nothing aliases the reader's
// buffers).
func DecodeShardResult(r io.Reader) (*ShardResult, error) {
	var fixed [10]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: short preamble: %v", ErrShardWire, err)
	}
	if string(fixed[:4]) != shardMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrShardWire, fixed[:4])
	}
	if fixed[4] != shardVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrShardWire, fixed[4])
	}
	flags := fixed[5]
	hlen := binary.LittleEndian.Uint32(fixed[6:])
	if hlen > maxShardHeader {
		return nil, fmt.Errorf("%w: header length %d exceeds %d", ErrShardWire, hlen, maxShardHeader)
	}
	hjson := make([]byte, hlen)
	if _, err := io.ReadFull(r, hjson); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrShardWire, err)
	}
	var res ShardResult
	if err := json.Unmarshal(hjson, &res); err != nil {
		return nil, fmt.Errorf("dist: decode shard header: %w", err)
	}
	if flags&flagYLT == 0 {
		res.YLT = nil
		return &res, nil
	}

	var dims [12]byte
	if _, err := io.ReadFull(r, dims[:]); err != nil {
		return nil, fmt.Errorf("%w: short YLT dims: %v", ErrShardWire, err)
	}
	numL := int(binary.LittleEndian.Uint32(dims[0:]))
	numT64 := binary.LittleEndian.Uint64(dims[4:])
	shardSpan := res.Hi - res.Lo
	if shardSpan < 0 || numT64 != uint64(shardSpan) {
		return nil, fmt.Errorf("%w: YLT trial count %d disagrees with shard range [%d, %d)", ErrShardWire, numT64, res.Lo, res.Hi)
	}
	numT := int(numT64)
	if numL < 0 || numL > maxShardHeader {
		return nil, fmt.Errorf("%w: layer count %d", ErrShardWire, numL)
	}
	// Every allocation below grows with the bytes actually read, so a
	// frame that claims more layers or trials than it carries fails on
	// its short read instead of reserving what it claimed.
	idb, err := io.ReadAll(io.LimitReader(r, 4*int64(numL)))
	if err != nil || len(idb) != 4*numL {
		return nil, fmt.Errorf("%w: short layer IDs", ErrShardWire)
	}
	st := &core.YLTState{LayerIDs: make([]uint32, numL), NumTrials: numT}
	for i := range st.LayerIDs {
		st.LayerIDs[i] = binary.LittleEndian.Uint32(idb[4*i:])
	}
	var scratch [8 * wireChunk]byte
	for _, cols := range []*[][]float64{&st.AggLoss, &st.MaxOccLoss} {
		*cols = make([][]float64, 0, min(numL, wireChunk))
		for l := 0; l < numL; l++ {
			col, err := readColumn(r, numT, scratch[:])
			if err != nil {
				return nil, err
			}
			*cols = append(*cols, col)
		}
	}
	res.YLT = st
	return &res, nil
}

// readColumn reads one n-float column. Storage is reserved up to 1 Mi
// floats at once and grows past that only as the frame delivers.
func readColumn(r io.Reader, n int, scratch []byte) ([]float64, error) {
	col := make([]float64, 0, min(n, 1<<20))
	for len(col) < n {
		k := min(n-len(col), wireChunk)
		if _, err := io.ReadFull(r, scratch[:8*k]); err != nil {
			return nil, fmt.Errorf("%w: short YLT column: %v", ErrShardWire, err)
		}
		for i := 0; i < k; i++ {
			col = append(col, math.Float64frombits(binary.LittleEndian.Uint64(scratch[8*i:])))
		}
	}
	return col, nil
}
