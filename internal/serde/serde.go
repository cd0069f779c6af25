// Package serde is the Go analog of the Boost.Serialization layer that
// HEPnOS uses to turn C++ objects into stored bytes (§II-A of the paper).
//
// Products are arbitrary user types. Any Go value composed of booleans,
// integers, floats, strings, slices, arrays, maps, pointers and structs of
// those can be serialized without any annotation, mirroring how HEPnOS
// handles "any native datatype and C++ standard library container". A type
// can also customize its wire form by implementing Custom, the analog of
// providing a serialize() member function for Boost.
//
// The encoding is deterministic (map keys are sorted), compact (unsigned
// varints for lengths, zig-zag varints for signed integers) and
// self-delimiting per value, so multiple products can be concatenated.
package serde

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

// Custom is implemented by types that want full control over their wire
// format. Serialize is called for both saving and loading; inspect
// Archive.Saving to know the direction, exactly like a Boost serialize()
// template function.
type Custom interface {
	Serialize(ar *Archive) error
}

// ErrCorrupt reports truncated or malformed input to Unmarshal.
var ErrCorrupt = errors.New("serde: corrupt input")

// ErrUnsupported reports a Go type the archive cannot represent.
var ErrUnsupported = errors.New("serde: unsupported type")

// archives pools the Archive structs themselves so Marshal/Unmarshal calls
// don't heap-allocate one per operation.
var archives = sync.Pool{New: func() any { return new(Archive) }}

func getArchive() *Archive { return archives.Get().(*Archive) }

func putArchive(ar *Archive) {
	*ar = Archive{}
	archives.Put(ar)
}

// Marshal encodes v into a fresh, exactly-sized byte slice. v may be the
// value or a (chain of) pointer(s) to it; both encode identically, so
// Marshal(&v) round-trips through Unmarshal(data, &v). Internally it
// encodes into a pooled scratch buffer (so buffer growth is amortized across
// calls) and copies out only the final bytes; the result is GC-owned and
// safe to retain. Hot paths that can manage buffer lifetime should prefer
// MarshalAppend into a wire.Buf instead.
func Marshal(v any) ([]byte, error) {
	scratch := wire.Acquire(256)
	out, err := MarshalAppend(scratch.B, v)
	if err != nil {
		scratch.Release()
		return nil, err
	}
	exact := make([]byte, len(out))
	copy(exact, out)
	scratch.B = out[:0] // keep any growth for the pool
	scratch.Release()
	return exact, nil
}

// MarshalAppend encodes v, appending to dst, and returns the extended
// slice (like append, dst may be reallocated). This is the zero-extra-copy
// encode path: callers owning a pooled wire.Buf pass buf.B and store the
// result back, so repeated encodes reuse one buffer.
func MarshalAppend(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return nil, fmt.Errorf("%w: Marshal of nil", ErrUnsupported)
	}
	// A top-level pointer is the caller's way of handing over the value,
	// not part of the encoded type: Marshal(&v) and Marshal(v) produce
	// identical bytes, matching what Unmarshal(data, &v) expects on the
	// way back. Pointers *inside* the value keep their nil-marker byte.
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("serde: Marshal of nil %s", rv.Type())
		}
		rv = rv.Elem()
	}
	c := codecFor(rv.Type())
	ar := getArchive()
	ar.Saving = true
	ar.buf = dst
	err := c.encAny(ar, rv)
	out := ar.buf
	putArchive(ar)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Unmarshal decodes data into the value pointed to by ptr. ptr must be a
// non-nil pointer. Unmarshal returns ErrCorrupt if data is truncated or has
// trailing garbage. Decoded byte slices are copies: the result does not
// alias data.
func Unmarshal(data []byte, ptr any) error {
	return unmarshal(data, ptr, false)
}

// UnmarshalBorrow decodes like Unmarshal, but every []byte field in the
// result is a borrowed view into data instead of a copy — the zero-copy
// decode mode. The caller must ensure data outlives every such view and is
// not recycled (wire.Buf.Release) or mutated while views are live; see
// DESIGN.md §12 for the ownership rules. Strings and all other field kinds
// are still copies, so only []byte fields pin data.
func UnmarshalBorrow(data []byte, ptr any) error {
	return unmarshal(data, ptr, true)
}

func unmarshal(data []byte, ptr any, borrow bool) error {
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("serde: Unmarshal target must be a non-nil pointer, got %T", ptr)
	}
	c := codecFor(rv.Type().Elem())
	ar := getArchive()
	ar.buf = data
	ar.borrow = borrow
	err := c.dec(ar, rv.Elem())
	off := ar.off
	putArchive(ar)
	if err != nil {
		return err
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-off)
	}
	return nil
}

// Archive carries an encode or decode in progress. User code only touches
// it from a Custom.Serialize implementation, through the typed accessors.
type Archive struct {
	// Saving is true while encoding, false while decoding.
	Saving bool

	buf    []byte // output when saving, input when loading
	off    int    // read offset when loading
	borrow bool   // loading only: []byte fields alias buf instead of copying
}

// Bytes serializes a byte slice (fast path, no per-element reflection).
// When decoding under UnmarshalBorrow, *p is set to a view into the input
// rather than a copy — this applies inside Custom.Serialize too.
func (ar *Archive) Bytes(p *[]byte) error {
	if ar.Saving {
		ar.putUvarint(uint64(len(*p)))
		ar.buf = append(ar.buf, *p...)
		return nil
	}
	n, err := ar.getUvarint()
	if err != nil {
		return err
	}
	if uint64(len(ar.buf)-ar.off) < n {
		return fmt.Errorf("%w: byte slice of %d exceeds input", ErrCorrupt, n)
	}
	if ar.borrow {
		*p = ar.buf[ar.off : ar.off+int(n) : ar.off+int(n)]
	} else {
		*p = append((*p)[:0], ar.buf[ar.off:ar.off+int(n)]...)
	}
	ar.off += int(n)
	return nil
}

// String serializes a string.
func (ar *Archive) String(s *string) error {
	if ar.Saving {
		ar.putUvarint(uint64(len(*s)))
		ar.buf = append(ar.buf, *s...)
		return nil
	}
	n, err := ar.getUvarint()
	if err != nil {
		return err
	}
	if uint64(len(ar.buf)-ar.off) < n {
		return fmt.Errorf("%w: string of %d exceeds input", ErrCorrupt, n)
	}
	*s = string(ar.buf[ar.off : ar.off+int(n)])
	ar.off += int(n)
	return nil
}

// Bool serializes a bool.
func (ar *Archive) Bool(b *bool) error { return ar.scalar(opBool, unsafe.Pointer(b)) }

// Uint64 serializes an unsigned integer as a varint.
func (ar *Archive) Uint64(v *uint64) error { return ar.scalar(opUint64, unsafe.Pointer(v)) }

// Int64 serializes a signed integer as a zig-zag varint.
func (ar *Archive) Int64(v *int64) error { return ar.scalar(opInt64, unsafe.Pointer(v)) }

// Float64 serializes a float64 as 8 fixed bytes.
func (ar *Archive) Float64(v *float64) error { return ar.scalar(opFloat64, unsafe.Pointer(v)) }

// Float32 serializes a float32 as 4 fixed bytes.
func (ar *Archive) Float32(v *float32) error { return ar.scalar(opFloat32, unsafe.Pointer(v)) }

// scalar moves the scalar at p, of the op's type, through the archive.
func (ar *Archive) scalar(op flatOp, p unsafe.Pointer) (err error) {
	l := &scalarLayouts[op]
	if ar.Saving {
		ar.buf = l.encode(ar.buf, p)
		return nil
	}
	ar.off, err = l.decode(ar.buf, ar.off, p)
	return err
}

// Value serializes any supported Go value through its compiled codec; v
// must be a pointer to the value. This is the "ar & x" of the Boost idiom.
func (ar *Archive) Value(v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("serde: Archive.Value needs a non-nil pointer, got %T", v)
	}
	c := codecFor(rv.Type().Elem())
	if ar.Saving {
		return c.enc(ar, rv.Elem())
	}
	return c.dec(ar, rv.Elem())
}

func (ar *Archive) putUvarint(v uint64) { ar.buf = binary.AppendUvarint(ar.buf, v) }

func (ar *Archive) getUvarint() (uint64, error) {
	v, n := binary.Uvarint(ar.buf[ar.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	ar.off += n
	return v, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
