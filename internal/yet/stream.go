package yet

import (
	"bufio"
	"fmt"
	"io"
)

// Reader streams a serialised YET trial-by-trial without materialising
// the whole table: a paper-size YET (1M trials x 1000 events) is ~4 GB
// on disk, which the paper's preprocessing stage loads wholesale; the
// streaming reader lets the engine analyse tables larger than memory in
// bounded batches, each decoded straight into a table's event column.
type Reader struct {
	br     *bufio.Reader
	bounds []uint64 // full boundary vector (8 bytes/trial; ~8 MB for 1M trials)
	next   int      // next trial index to read
}

// NewReader parses the header and boundary vector and positions the
// stream at the first trial.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	bounds, err := readBounds(br, h)
	if err != nil {
		return nil, err
	}
	return &Reader{br: br, bounds: bounds}, nil
}

// NumTrials returns the total trial count declared by the stream.
func (r *Reader) NumTrials() int { return len(r.bounds) - 1 }

// NumOccurrences returns the total occurrence count declared by the
// stream (the validated endpoint of the boundary vector).
func (r *Reader) NumOccurrences() int { return int(r.bounds[len(r.bounds)-1]) }

// MeanTrialLen returns the average occurrences per trial declared by
// the stream header, available before any trial payload is decoded —
// the engine uses it to size worker scratch buffers.
func (r *Reader) MeanTrialLen() float64 {
	if r.NumTrials() == 0 {
		return 0
	}
	return float64(r.NumOccurrences()) / float64(r.NumTrials())
}

// Done reports whether all trials have been read.
func (r *Reader) Done() bool { return r.next >= r.NumTrials() }

// Offset returns the index of the next trial ReadBatch will return.
func (r *Reader) Offset() int { return r.next }

// ReadBatch reads up to maxTrials further trials into a standalone Table.
// It returns io.EOF when the stream is exhausted.
func (r *Reader) ReadBatch(maxTrials int) (*Table, error) {
	if maxTrials <= 0 {
		return nil, fmt.Errorf("yet: batch size must be positive")
	}
	if r.Done() {
		return nil, io.EOF
	}
	lo := r.next
	hi := lo + maxTrials
	if hi > r.NumTrials() {
		hi = r.NumTrials()
	}
	base := r.bounds[lo]
	count := r.bounds[hi] - base
	t := &Table{events: make([]uint32, 0, count), bounds: make([]uint64, hi-lo+1)}
	for i := range t.bounds {
		t.bounds[i] = r.bounds[lo+i] - base
	}
	if err := readEvents(r.br, t, count, base); err != nil {
		return nil, err
	}
	r.next = hi
	return t, nil
}
