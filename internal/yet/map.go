package yet

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// This file is the zero-copy loading path: Map serves a file's columns
// directly out of a read-only page-cache mapping instead of decoding
// them onto the heap. The format needs no translation for that:
//
//   - The boundary vector starts at byte 24 (magic + version + two
//     uint64 counts), which is 8-aligned, so the mapped bytes ARE the
//     []uint64 bounds slice.
//   - The event column starts at 24 + 8*(numTrials+1), also 8-aligned,
//     and trial i's events begin 4*bounds[i] into it, so each trial is
//     served as an unsafe []uint32 view — the kernels' hot accessor
//     touches only mapped memory.
//
// Builds without an mmap backend fall back to the heap decoder, so Map
// is always safe to call.

// mapping owns one mmap'd YET file. All Table views cut from a Map'd
// table share the mapping; the last reference dropping triggers a
// finalizer munmap, and the root table's Close releases it eagerly.
type mapping struct {
	data    []byte   // the whole file
	payload []byte   // data[payloadStart:]
	bounds  []uint64 // unsafe view of the file's boundary vector
	closed  atomic.Bool
}

// trialEvents returns the event column of the trial whose occurrences
// span [abs, abs+n) in file order, as a view into the mapping.
func (m *mapping) trialEvents(abs, n uint64) []uint32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&m.payload[4*abs])), n)
}

// close releases the mapping. Idempotent; later column access through a
// closed mapping faults, so only the owner (artifact cache, test) may
// call it and only once no views remain in flight.
func (m *mapping) close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	data := m.data
	m.data, m.payload, m.bounds = nil, nil, nil
	return munmapFile(data)
}

// headerSize is the fixed prefix before the boundary vector: magic,
// version uint32, numTrials uint64, numOcc uint64.
const headerSize = 24

// Map opens a serialised YET and serves it without decoding: on
// platforms with an mmap backend it comes back as a page-cache-backed
// view (Mapped() == true) whose event columns alias the file bytes;
// nommap builds transparently fall back to the heap decoder. The
// returned table and every Slice cut from it share one mapping,
// released by a finalizer or an explicit Close on the root.
func Map(path string) (*Table, error) {
	if !mmapSupported {
		return ReadFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, err := readHeader(bufio.NewReaderSize(f, headerSize+8))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	payloadStart := int64(headerSize) + 8*int64(h.numTrials+1)
	want := payloadStart + OccurrenceBytes*int64(h.numOcc)
	if fi.Size() != want {
		return nil, fmt.Errorf("%w: file is %d bytes, header implies %d", ErrCorrupt, fi.Size(), want)
	}
	data, err := mmapFile(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("yet: mmap %s: %w", path, err)
	}
	m := &mapping{
		data:    data,
		payload: data[payloadStart:],
		bounds:  unsafe.Slice((*uint64)(unsafe.Pointer(&data[headerSize])), h.numTrials+1),
	}
	if err := checkBounds(m.bounds, h.numOcc); err != nil {
		munmapFile(data)
		return nil, err
	}
	runtime.SetFinalizer(m, func(m *mapping) { m.close() })
	return &Table{bounds: m.bounds, m: m, owns: true}, nil
}

// checkBounds validates a boundary vector already in memory: zero
// start, monotone, ending exactly at the occurrence count.
func checkBounds(bounds []uint64, numOcc uint64) error {
	if bounds[0] != 0 || bounds[len(bounds)-1] != numOcc {
		return fmt.Errorf("%w: boundary vector endpoints", ErrCorrupt)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return fmt.Errorf("%w: boundaries not monotone at %d", ErrCorrupt, i)
		}
	}
	return nil
}

// Mapped reports whether the table's columns are served from an mmap'd
// file rather than heap slices.
func (t *Table) Mapped() bool { return t.m != nil }

// Close releases the table's file mapping, if it owns one. Tables from
// Generate/Read and Slice views do not own a mapping and return nil;
// for them (and for forgotten root tables) the finalizer cleans up.
// After Close, column access through the table or any surviving view
// faults — the caller owns that ordering.
func (t *Table) Close() error {
	if t.m == nil || !t.owns {
		return nil
	}
	return t.m.close()
}

// ReadFile decodes a serialised YET from disk onto the heap — the
// portable counterpart of Map.
func ReadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile atomically serialises the table to path: it writes a temp
// file in the same directory, fsyncs, and renames into place, so a
// concurrent Map never observes a torn file.
func WriteFile(path string, t *Table) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := t.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
