// Package trace records and replays memory-access traces. Recording taps
// the GPU-to-memory interface, so a trace captures exactly the post-L1
// coalesced access stream a workload generated; replaying feeds it back as
// a workload. This supports the classic simulator workflows the original
// GPGPU-Sim study relied on: capture once, re-run many placement policies
// against an identical stream, or ship a trace instead of a workload
// generator. Programs turns a trace into warp programs; experiments.RunTrace
// runs them through the same assembly as a workload run, so a replay sees
// the full memory system of its config (topology, pool capacities, lanes,
// migration, probes).
//
// The on-disk format is a magic header followed by one varint per event:
// zig-zag encoded virtual-address delta shifted left one bit, with the low
// bit carrying the read/write flag. Sequential streams compress to ~1-2
// bytes per access.
//
// Naming note: this package is the *memory-access* trace — a simulation
// artifact of the paper's methodology (what addresses the GPU touched).
// It is unrelated to execution tracing of the simulator and its services
// (what the system spent time on: spans, trace IDs, Perfetto timelines),
// which lives in internal/telemetry.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Event is one coalesced memory access.
type Event struct {
	VA    uint64
	Write bool
}

var magic = [4]byte{'H', 'T', 'R', 1}

// Writer streams events to an io.Writer. Call Flush when done.
type Writer struct {
	bw     *bufio.Writer
	lastVA uint64
	count  uint64
	wroteH bool
	buf    [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write appends one event.
func (w *Writer) Write(e Event) error {
	if !w.wroteH {
		if _, err := w.bw.Write(magic[:]); err != nil {
			return err
		}
		w.wroteH = true
	}
	delta := int64(e.VA) - int64(w.lastVA)
	w.lastVA = e.VA
	v := zigzag(delta) << 1
	if e.Write {
		v |= 1
	}
	n := binary.PutUvarint(w.buf[:], v)
	if _, err := w.bw.Write(w.buf[:n]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count reports how many events have been written.
func (w *Writer) Count() uint64 { return w.count }

// Flush writes buffered data through (including the header for an empty
// trace).
func (w *Writer) Flush() error {
	if !w.wroteH {
		if _, err := w.bw.Write(magic[:]); err != nil {
			return err
		}
		w.wroteH = true
	}
	return w.bw.Flush()
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ErrBadTrace reports a malformed or mis-versioned trace stream.
var ErrBadTrace = errors.New("trace: bad or unsupported trace data")

// Reader decodes a trace stream.
type Reader struct {
	br     *bufio.Reader
	lastVA uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var h [4]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if h != magic {
		return nil, fmt.Errorf("%w: header %q", ErrBadTrace, h)
	}
	return &Reader{br: br}, nil
}

// Read returns the next event, or io.EOF at the end of the trace.
func (r *Reader) Read() (Event, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	write := v&1 == 1
	delta := unzigzag(v >> 1)
	r.lastVA = uint64(int64(r.lastVA) + delta)
	return Event{VA: r.lastVA, Write: write}, nil
}

// ReadAll drains the reader into a slice.
func ReadAll(r *Reader) ([]Event, error) {
	var out []Event
	for {
		e, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}
