package serde

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// Compiled codecs. The first encode or decode of a Go type compiles a codec
// for it: the Custom check, the kind switch and the struct plan are resolved
// once, into closures that every later value of the type runs directly.
// Scalars and structs of scalars additionally get a flat layout — field
// offsets and operations — that moves their bytes without reflect.Value.

// codec is the compiled encoder and decoder of one Go type. Both take an
// addressable value: a decode target is reached through the caller's
// pointer, and a value to encode is reached through a pointer, a slice, a
// struct or array that is itself addressable, or else through encAny.
type codec struct {
	enc func(ar *Archive, v reflect.Value) error
	dec func(ar *Archive, v reflect.Value) error
	// flat is set for a scalar and for a struct whose serialized fields are
	// all scalars, none of them Custom.
	flat *flatLayout
	// direct is set when enc also accepts a value without an address:
	// strings, slices, maps and pointers, whose encoders read only the
	// header.
	direct bool
	temps  sync.Pool // *T, addressable copies for encAny
}

// encAny encodes v, which may lack an address: a value handed to Marshal
// by value, or a map entry. Unless the codec is direct, v is first copied
// into a pooled temporary of its type, since the encoder reads its memory.
func (c *codec) encAny(ar *Archive, v reflect.Value) error {
	if c.direct || v.CanAddr() {
		return c.enc(ar, v)
	}
	p := c.temps.Get()
	tmp := reflect.ValueOf(p).Elem()
	tmp.Set(v)
	err := c.enc(ar, tmp)
	tmp.SetZero() // a pooled copy must not keep v's strings and slices alive
	c.temps.Put(p)
	return err
}

var (
	codecs    sync.Map   // reflect.Type -> *codec, complete codecs only
	compileMu sync.Mutex // one compile at a time, so a type compiles once
)

// codecFor returns the compiled codec of t, compiling it on first use.
func codecFor(t reflect.Type) *codec {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	if c, ok := codecs.Load(t); ok {
		return c.(*codec) // another goroutine compiled it while we waited
	}
	cp := compiler{pending: make(map[reflect.Type]*codec)}
	c := cp.compile(t)
	// A recursive type's codecs point at each other, so none is complete
	// before the outermost compile returns: publish them together.
	for pt, pc := range cp.pending {
		codecs.Store(pt, pc)
	}
	return c
}

type compiler struct {
	pending map[reflect.Type]*codec // compiled by this call, not yet published
}

func (cp *compiler) compile(t reflect.Type) *codec {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec)
	}
	if c, ok := cp.pending[t]; ok {
		// A recursive reference: the closures below reach c through the
		// pointer only when they run, by which time it is filled in.
		return c
	}
	c := &codec{}
	c.temps.New = func() any { return reflect.New(t).Interface() }
	cp.pending[t] = c
	// Custom serializers take priority, matching Boost's dispatch on the
	// presence of a serialize() member.
	if isCustom(t) {
		c.enc = customCodec
		c.dec = customCodec
		return c
	}
	if op, ok := scalarOp(t); ok {
		c.flat = &scalarLayouts[op]
		c.enc, c.dec = c.flat.encodeValue, c.flat.decodeValue
		return c
	}
	switch t.Kind() {
	case reflect.String:
		c.enc, c.dec, c.direct = encodeString, decodeString, true
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			c.enc, c.dec = encodeBytes, decodeBytes
		} else {
			cp.compileSlice(c, t)
		}
		c.direct = true
	case reflect.Array:
		cp.compileArray(c, t)
	case reflect.Map:
		cp.compileMap(c, t)
		c.direct = true
	case reflect.Pointer:
		cp.compilePointer(c, t)
		c.direct = true
	case reflect.Struct:
		cp.compileStruct(c, t)
	default:
		err := fmt.Errorf("%w: %s", ErrUnsupported, t.Kind())
		c.enc = func(*Archive, reflect.Value) error { return err }
		c.dec = c.enc
	}
	return c
}

var customType = reflect.TypeOf((*Custom)(nil)).Elem()

func isCustom(t reflect.Type) bool { return reflect.PointerTo(t).Implements(customType) }

func customCodec(ar *Archive, v reflect.Value) error {
	return v.Addr().Interface().(Custom).Serialize(ar)
}

func encodeString(ar *Archive, v reflect.Value) error {
	s := v.String()
	return ar.String(&s)
}

func decodeString(ar *Archive, v reflect.Value) error {
	var s string
	if err := ar.String(&s); err != nil {
		return err
	}
	v.SetString(s)
	return nil
}

func encodeBytes(ar *Archive, v reflect.Value) error {
	b := v.Bytes()
	return ar.Bytes(&b)
}

func decodeBytes(ar *Archive, v reflect.Value) error {
	var b []byte
	if err := ar.Bytes(&b); err != nil {
		return err
	}
	v.SetBytes(b)
	return nil
}

func (cp *compiler) compileSlice(c *codec, t reflect.Type) {
	empty := reflect.MakeSlice(t, 0, 0)
	if et := t.Elem(); et.Kind() == reflect.Slice && et.Elem().Kind() == reflect.Uint8 && !isCustom(et) {
		// A list of byte strings — keys, values, batched products — the
		// shape of every bulk RPC.
		c.enc = encodeBytesList
		c.dec = func(ar *Archive, v reflect.Value) error { return decodeBytesList(ar, v, empty) }
		return
	}
	elem := cp.compile(t.Elem())
	// A flat element never recurses, so its layout is final here.
	if fl := elem.flat; fl != nil {
		size := t.Elem().Size()
		c.enc = func(ar *Archive, v reflect.Value) error {
			n := v.Len()
			ar.putUvarint(uint64(n))
			p := v.UnsafePointer() // the first element: slice elements are always addressable
			for i := 0; i < n; i++ {
				ar.buf = fl.encode(ar.buf, unsafe.Add(p, uintptr(i)*size))
			}
			return nil
		}
		c.dec = func(ar *Archive, v reflect.Value) error {
			n, err := ar.getSliceLen()
			if err != nil {
				return err
			}
			setFreshSlice(v, n, empty)
			p := v.UnsafePointer()
			for i := 0; i < n; i++ {
				if ar.off, err = fl.decode(ar.buf, ar.off, unsafe.Add(p, uintptr(i)*size)); err != nil {
					return fmt.Errorf("slice index %d: %w", i, err)
				}
			}
			return nil
		}
		return
	}
	c.enc = func(ar *Archive, v reflect.Value) error {
		n := v.Len()
		ar.putUvarint(uint64(n))
		for i := 0; i < n; i++ {
			if err := elem.enc(ar, v.Index(i)); err != nil {
				return fmt.Errorf("slice index %d: %w", i, err)
			}
		}
		return nil
	}
	c.dec = func(ar *Archive, v reflect.Value) error {
		n, err := ar.getSliceLen()
		if err != nil {
			return err
		}
		setFreshSlice(v, n, empty)
		for i := 0; i < n; i++ {
			if err := elem.dec(ar, v.Index(i)); err != nil {
				return fmt.Errorf("slice index %d: %w", i, err)
			}
		}
		return nil
	}
}

// bytesList views a slice whose elements are byte slices as [][]byte: the
// element type may be named, but its layout is that of []byte.
func bytesList(v reflect.Value, n int) [][]byte {
	return unsafe.Slice((*[]byte)(v.UnsafePointer()), n)
}

// encodeBytesList sizes the output once for the whole list, then appends
// each element as Archive.Bytes would.
func encodeBytesList(ar *Archive, v reflect.Value) error {
	bs := bytesList(v, v.Len())
	size := uvarintLen(uint64(len(bs)))
	for _, b := range bs {
		size += uvarintLen(uint64(len(b))) + len(b)
	}
	ar.buf = slices.Grow(ar.buf, size)
	ar.putUvarint(uint64(len(bs)))
	for _, b := range bs {
		ar.putUvarint(uint64(len(b)))
		ar.buf = append(ar.buf, b...)
	}
	return nil
}

func decodeBytesList(ar *Archive, v reflect.Value, empty reflect.Value) error {
	n, err := ar.getSliceLen()
	if err != nil {
		return err
	}
	setFreshSlice(v, n, empty)
	bs := bytesList(v, n)
	for i := range bs {
		if err := ar.Bytes(&bs[i]); err != nil {
			return fmt.Errorf("slice index %d: %w", i, err)
		}
	}
	return nil
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// setFreshSlice points the addressable slice v at a new zeroed backing
// array of length n — never at v's old one, whose elements the caller may
// still hold — without the slice header MakeSlice allocates. A decoded
// empty slice is empty, not nil: v takes empty, t's shared zero-length
// slice.
func setFreshSlice(v reflect.Value, n int, empty reflect.Value) {
	if n == 0 {
		v.Set(empty)
		return
	}
	v.SetZero()
	v.Grow(n)
	v.SetLen(n)
}

// getSliceLen reads a slice length prefix. Every element takes at least one
// byte, so a length beyond the remaining input is certainly corrupt and
// must not trigger a huge allocation.
func (ar *Archive) getSliceLen() (int, error) {
	n, err := ar.getUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(ar.buf)-ar.off) {
		return 0, fmt.Errorf("%w: slice length %d exceeds input", ErrCorrupt, n)
	}
	return int(n), nil
}

func (cp *compiler) compileArray(c *codec, t reflect.Type) {
	elem, n := cp.compile(t.Elem()), t.Len()
	c.enc = func(ar *Archive, v reflect.Value) error {
		for i := 0; i < n; i++ {
			if err := elem.enc(ar, v.Index(i)); err != nil {
				return fmt.Errorf("array index %d: %w", i, err)
			}
		}
		return nil
	}
	c.dec = func(ar *Archive, v reflect.Value) error {
		for i := 0; i < n; i++ {
			if err := elem.dec(ar, v.Index(i)); err != nil {
				return fmt.Errorf("array index %d: %w", i, err)
			}
		}
		return nil
	}
}

func (cp *compiler) compileMap(c *codec, t reflect.Type) {
	kt, et := t.Key(), t.Elem()
	key, elem, less := cp.compile(kt), cp.compile(et), lessFor(kt)
	c.enc = func(ar *Archive, v reflect.Value) error {
		keys := v.MapKeys()
		// Sort keys for a deterministic encoding; unordered map bytes
		// would break value-equality checks on stored products.
		sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
		ar.putUvarint(uint64(len(keys)))
		for _, k := range keys {
			if err := key.encAny(ar, k); err != nil {
				return fmt.Errorf("map key: %w", err)
			}
			if err := elem.encAny(ar, v.MapIndex(k)); err != nil {
				return fmt.Errorf("map value: %w", err)
			}
		}
		return nil
	}
	c.dec = func(ar *Archive, v reflect.Value) error {
		n, err := ar.getUvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(ar.buf)-ar.off) {
			return fmt.Errorf("%w: map length %d exceeds input", ErrCorrupt, n)
		}
		out := reflect.MakeMapWithSize(t, int(n))
		// One addressable key and value serve every entry: SetMapIndex
		// copies them in, and zeroing first keeps a decode that appends
		// (a Custom's Archive.Bytes) off the previous entry's memory.
		k, e := reflect.New(kt).Elem(), reflect.New(et).Elem()
		for i := 0; i < int(n); i++ {
			k.SetZero()
			if err := key.dec(ar, k); err != nil {
				return fmt.Errorf("map key: %w", err)
			}
			e.SetZero()
			if err := elem.dec(ar, e); err != nil {
				return fmt.Errorf("map value: %w", err)
			}
			out.SetMapIndex(k, e)
		}
		v.Set(out)
		return nil
	}
}

// lessFor orders map keys of type t for deterministic map output.
func lessFor(t reflect.Type) func(a, b reflect.Value) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	case reflect.Float32, reflect.Float64:
		return func(a, b reflect.Value) bool { return a.Float() < b.Float() }
	case reflect.String:
		return func(a, b reflect.Value) bool { return a.String() < b.String() }
	case reflect.Bool:
		return func(a, b reflect.Value) bool { return !a.Bool() && b.Bool() }
	default:
		// Fall back to the formatted value; slower but still deterministic.
		return func(a, b reflect.Value) bool { return fmt.Sprint(a.Interface()) < fmt.Sprint(b.Interface()) }
	}
}

func (cp *compiler) compilePointer(c *codec, t reflect.Type) {
	et := t.Elem()
	elem := cp.compile(et)
	c.enc = func(ar *Archive, v reflect.Value) error {
		if v.IsNil() {
			ar.buf = append(ar.buf, 0)
			return nil
		}
		ar.buf = append(ar.buf, 1)
		return elem.enc(ar, v.Elem())
	}
	c.dec = func(ar *Archive, v reflect.Value) error {
		if ar.off >= len(ar.buf) {
			return fmt.Errorf("%w: truncated pointer flag", ErrCorrupt)
		}
		flag := ar.buf[ar.off]
		ar.off++
		switch flag {
		case 0:
			v.SetZero()
			return nil
		case 1:
			v.Set(reflect.New(et))
			return elem.dec(ar, v.Elem())
		default:
			return fmt.Errorf("%w: pointer flag %#x", ErrCorrupt, flag)
		}
	}
}

// structPlan lists, per struct type, the fields the archive walks
// (exported, not tagged `serde:"-"`) — the one rule for which fields are
// serialized, shared by the row codec and the column schemas.
type structPlan struct {
	fields []int
	names  []string // for error messages, parallel to fields
}

func planFor(t reflect.Type) *structPlan {
	p := &structPlan{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue // unexported fields are transient, like Boost's untracked members
		}
		if f.Tag.Get("serde") == "-" {
			continue
		}
		p.fields = append(p.fields, i)
		p.names = append(p.names, f.Name)
	}
	return p
}

func (cp *compiler) compileStruct(c *codec, t reflect.Type) {
	plan := planFor(t)
	fields := make([]*codec, len(plan.fields))
	flat := &flatLayout{}
	for i, fi := range plan.fields {
		sf := t.Field(fi)
		fields[i] = cp.compile(sf.Type)
		if op, ok := scalarOp(sf.Type); ok && flat != nil && !isCustom(sf.Type) {
			flat.fields = append(flat.fields, flatField{
				off: sf.Offset, op: op, owner: t.Name(), name: plan.names[i],
			})
		} else {
			flat = nil
		}
	}
	if flat != nil {
		c.flat = flat
		c.enc, c.dec = flat.encodeValue, flat.decodeValue
		return
	}
	fieldErr := func(i int, err error) error {
		return fmt.Errorf("field %s.%s: %w", t.Name(), plan.names[i], err)
	}
	c.enc = func(ar *Archive, v reflect.Value) error {
		for i, fi := range plan.fields {
			if err := fields[i].enc(ar, v.Field(fi)); err != nil {
				return fieldErr(i, err)
			}
		}
		return nil
	}
	c.dec = func(ar *Archive, v reflect.Value) error {
		for i, fi := range plan.fields {
			if err := fields[i].dec(ar, v.Field(fi)); err != nil {
				return fieldErr(i, err)
			}
		}
		return nil
	}
}

// flatOp is the precompiled wire operation of one scalar field.
type flatOp uint8

const (
	opBool flatOp = iota
	opInt8
	opInt16
	opInt32
	opInt64
	opUint8
	opUint16
	opUint32
	opUint64
	opFloat32
	opFloat64
)

// scalarOp maps a scalar kind to its operation; int, uint and uintptr pick
// the operation of their size on this platform.
func scalarOp(t reflect.Type) (flatOp, bool) {
	switch t.Kind() {
	case reflect.Bool:
		return opBool, true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return [...]flatOp{1: opInt8, 2: opInt16, 4: opInt32, 8: opInt64}[t.Size()], true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return [...]flatOp{1: opUint8, 2: opUint16, 4: opUint32, 8: opUint64}[t.Size()], true
	case reflect.Float32:
		return opFloat32, true
	case reflect.Float64:
		return opFloat64, true
	}
	return 0, false
}

var opNames = [...]string{
	opBool: "bool", opInt8: "int8", opInt16: "int16", opInt32: "int32", opInt64: "int64",
	opUint8: "uint8", opUint16: "uint16", opUint32: "uint32", opUint64: "uint64",
	opFloat32: "float32", opFloat64: "float64",
}

// scalarLayouts holds the one-field layout of each op: a lone scalar's
// codec, the Archive accessors and the numeric columns all move their
// scalar through it, so flatLayout's encode and decode are the only
// implementation of the scalar wire rules.
var scalarLayouts = func() (ls [opFloat64 + 1]flatLayout) {
	for op := range ls {
		ls[op].fields = []flatField{{op: flatOp(op)}}
	}
	return ls
}()

// storeInt writes a decoded varint into an integer of the op's width,
// rejecting values the width cannot hold.
func storeInt(op flatOp, p unsafe.Pointer, u uint64) error {
	if op <= opInt64 {
		i := unzigzag(u)
		switch op {
		case opInt8:
			if int64(int8(i)) != i {
				return overflow(op, i)
			}
			*(*int8)(p) = int8(i)
		case opInt16:
			if int64(int16(i)) != i {
				return overflow(op, i)
			}
			*(*int16)(p) = int16(i)
		case opInt32:
			if int64(int32(i)) != i {
				return overflow(op, i)
			}
			*(*int32)(p) = int32(i)
		default:
			*(*int64)(p) = i
		}
		return nil
	}
	switch op {
	case opUint8:
		if uint64(uint8(u)) != u {
			return overflow(op, u)
		}
		*(*uint8)(p) = uint8(u)
	case opUint16:
		if uint64(uint16(u)) != u {
			return overflow(op, u)
		}
		*(*uint16)(p) = uint16(u)
	case opUint32:
		if uint64(uint32(u)) != u {
			return overflow(op, u)
		}
		*(*uint32)(p) = uint32(u)
	default:
		*(*uint64)(p) = u
	}
	return nil
}

func overflow(op flatOp, v any) error {
	return fmt.Errorf("%w: value %d overflows %s", ErrCorrupt, v, opNames[op])
}

// flatLayout is the offset form of a scalar (one field at offset 0) or of a
// struct of scalars.
type flatLayout struct {
	fields []flatField
}

type flatField struct {
	off   uintptr
	op    flatOp
	owner string // struct name and field name for error messages;
	name  string // empty for a lone scalar
}

func (f *flatField) err(err error) error {
	if f.name == "" {
		return err
	}
	return fmt.Errorf("field %s.%s: %w", f.owner, f.name, err)
}

// The layouts read and write memory at p plus a field offset. p is the
// address of a live value of the layout's type — an addressable
// reflect.Value's, a slice element's or an Archive accessor's argument —
// and every offset is a field offset of that type, so each access stays
// inside the value; the pointer arithmetic is what lets a field move
// without a reflect.Value per field.

// encode appends the wire form of the value at p to b. Integers are
// varints, zig-zagged when signed; a bool is one byte, 0 or 1; a float is
// its little-endian IEEE bits.
func (l *flatLayout) encode(b []byte, p unsafe.Pointer) []byte {
	for i := range l.fields {
		f := &l.fields[i]
		q := unsafe.Add(p, f.off)
		switch f.op {
		case opBool:
			if *(*bool)(q) {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case opInt8:
			b = binary.AppendUvarint(b, zigzag(int64(*(*int8)(q))))
		case opInt16:
			b = binary.AppendUvarint(b, zigzag(int64(*(*int16)(q))))
		case opInt32:
			b = binary.AppendUvarint(b, zigzag(int64(*(*int32)(q))))
		case opInt64:
			b = binary.AppendUvarint(b, zigzag(*(*int64)(q)))
		case opUint8:
			b = binary.AppendUvarint(b, uint64(*(*uint8)(q)))
		case opUint16:
			b = binary.AppendUvarint(b, uint64(*(*uint16)(q)))
		case opUint32:
			b = binary.AppendUvarint(b, uint64(*(*uint32)(q)))
		case opUint64:
			b = binary.AppendUvarint(b, *(*uint64)(q))
		case opFloat32:
			// Through float64 and back, as stored float32 fields always
			// were: the round trip quiets a signaling NaN, and the bytes
			// keep that.
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(float64(*(*float32)(q)))))
		case opFloat64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*(*float64)(q)))
		}
	}
	return b
}

// encodeValue encodes an addressable value of the layout's type.
func (l *flatLayout) encodeValue(ar *Archive, v reflect.Value) error {
	ar.buf = l.encode(ar.buf, v.Addr().UnsafePointer())
	return nil
}

// decodeValue decodes into an addressable value of the layout's type.
func (l *flatLayout) decodeValue(ar *Archive, v reflect.Value) (err error) {
	ar.off, err = l.decode(ar.buf, ar.off, v.Addr().UnsafePointer())
	return err
}

// decode reads one value of the layout's type at buf[off:] into p and
// returns the offset past it. It rejects truncated input, bool bytes other
// than 0 and 1, bad varints, and integers that overflow a narrow field.
func (l *flatLayout) decode(buf []byte, off int, p unsafe.Pointer) (int, error) {
	for i := range l.fields {
		f := &l.fields[i]
		q := unsafe.Add(p, f.off)
		switch f.op {
		case opBool:
			if off >= len(buf) {
				return off, f.err(fmt.Errorf("%w: truncated bool", ErrCorrupt))
			}
			c := buf[off]
			if c > 1 {
				return off, f.err(fmt.Errorf("%w: bool byte %#x", ErrCorrupt, c))
			}
			*(*bool)(q) = c == 1
			off++
		case opFloat32:
			if len(buf)-off < 4 {
				return off, f.err(fmt.Errorf("%w: truncated float32", ErrCorrupt))
			}
			*(*float32)(q) = float32(float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))))
			off += 4
		case opFloat64:
			if len(buf)-off < 8 {
				return off, f.err(fmt.Errorf("%w: truncated float64", ErrCorrupt))
			}
			*(*float64)(q) = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		default:
			var u uint64
			n := 1
			if off < len(buf) && buf[off] < 0x80 {
				u = uint64(buf[off])
			} else if u, n = binary.Uvarint(buf[off:]); n <= 0 {
				return off, f.err(fmt.Errorf("%w: bad varint", ErrCorrupt))
			}
			off += n
			if err := storeInt(f.op, q, u); err != nil {
				return off, f.err(err)
			}
		}
	}
	return off, nil
}
