package serde

import (
	"testing"
	"testing/quick"
)

// TestUnmarshalNeverPanicsOnGarbage feeds random bytes to Unmarshal for a
// spread of target shapes. Stored products travel over the network, so the
// decoder must fail cleanly — never panic, never allocate absurdly — on
// any input.
func TestUnmarshalNeverPanicsOnGarbage(t *testing.T) {
	type nested struct {
		A []int32
		B map[string][]float64
		C *nested
		D string
	}
	targets := []func() any{
		func() any { return new(int64) },
		func() any { return new(string) },
		func() any { return new([]byte) },
		func() any { return new([]particle) },
		func() any { return new(map[string]int) },
		func() any { return new(nested) },
		func() any { return new([4][2]uint16) },
		func() any { return new(*float64) },
	}
	f := func(data []byte, which uint8) bool {
		target := targets[int(which)%len(targets)]()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x into %T: %v", data, target, r)
			}
		}()
		_ = Unmarshal(data, target) // error or success, never panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationAlwaysErrors verifies the self-delimiting property: any
// strict prefix of a valid encoding fails to decode (or decodes with
// trailing-byte detection catching the inverse direction).
func TestTruncationAlwaysErrors(t *testing.T) {
	in := everything{
		B: true, I64: -5, U64: 99, F64: 2.5, S: "truncate me",
		Raw: []byte{1, 2, 3}, Ints: []int{4, 5}, Arr: [3]uint16{7, 8, 9},
		M: map[string]int32{"k": 1}, Ptr: &particle{X: 1}, Nest: particle{Y: 2},
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		var out everything
		if err := Unmarshal(data[:cut], &out); err == nil {
			t.Fatalf("prefix of length %d/%d decoded without error", cut, len(data))
		}
	}
}

// TestMutatedBytesNeverPanic flips each byte of a valid encoding and
// decodes; corruption may decode to different values or error, but must
// not panic.
func TestMutatedBytesNeverPanic(t *testing.T) {
	in := everything{S: "mutate", Ints: []int{1, 2, 3}, M: map[string]int32{"a": 1}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[i] ^= flip
			var out everything
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic with byte %d flipped by %#x: %v", i, flip, r)
					}
				}()
				_ = Unmarshal(mut, &out)
			}()
		}
	}
}

// FuzzUnmarshal is the native fuzz target guarding the decode refactor:
// arbitrary bytes are decoded into a spread of target shapes via both the
// copying and the borrowing decoder. Any input may error, but none may
// panic, and a successful borrow-decode must agree with the copy-decode.
// The seed corpus is built from golden encodings of the same shapes, so
// the fuzzer starts on the valid-prefix/corrupt-tail frontier where the
// truncated-varint, oversized-length and pointer-flag paths live.
func FuzzUnmarshal(f *testing.F) {
	seeds := []any{
		int64(-123456789),
		"seed string",
		[]byte{0xde, 0xad, 0xbe, 0xef},
		[]particle{{X: 1, Y: 2, Z: 3}, {X: -4.5}},
		map[string]int32{"hits": 120, "planes": 42},
		everything{
			B: true, I8: -8, I16: -16, I32: -32, I64: -64,
			U8: 8, U16: 16, U32: 32, U64: 64, F32: 0.5, F64: 2.25,
			S: "golden", Raw: []byte{9, 8, 7}, Ints: []int{1, 2, 3},
			Arr: [3]uint16{10, 20, 30}, M: map[string]int32{"m": -1},
			Ptr: &particle{Z: 9}, Nest: particle{X: 3},
		},
		&particle{X: 7}, // exercises the pointer-flag byte
	}
	for _, s := range seeds {
		data, err := Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Hand-made corrupt seeds: truncated varint, absurd length prefix.
	f.Add([]byte{0x80})                               // varint with no terminator
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge length
	f.Add([]byte{0x02, 0x41})                         // length 2, one byte of data
	f.Add([]byte{0x00})                               // a nil pointer, an empty slice, zero

	type nested struct {
		A []int32
		B map[string][]float64
		C *nested
		D string
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		targets := []func() any{
			func() any { return new(int64) },
			func() any { return new(string) },
			func() any { return new([]byte) },
			func() any { return new([]particle) },
			func() any { return new(map[string]int32) },
			func() any { return new(everything) },
			func() any { return new(nested) },
			func() any { return new(*particle) },
		}
		for _, mk := range targets {
			cp := mk()
			errCopy := Unmarshal(data, cp)
			br := mk()
			errBorrow := UnmarshalBorrow(data, br)
			if (errCopy == nil) != (errBorrow == nil) {
				t.Fatalf("decode disagreement into %T: copy err=%v, borrow err=%v", cp, errCopy, errBorrow)
			}
			if errCopy != nil {
				continue
			}
			// Both succeeded: they must have produced identical values
			// (the borrow views alias data, but the bytes are the bytes).
			// The one decode that cannot be re-marshaled is a nil
			// *particle (input 0x00): Marshal rejects a nil top-level
			// pointer.
			if p, ok := cp.(**particle); ok && *p == nil {
				if *br.(**particle) != nil {
					t.Fatalf("copy decoded a nil *particle, borrow did not")
				}
				continue
			}
			c, err := Marshal(cp)
			if err != nil {
				t.Fatalf("re-marshal of copy-decoded %T failed: %v", cp, err)
			}
			b, err := Marshal(br)
			if err != nil {
				t.Fatalf("re-marshal of borrow-decoded %T failed: %v", br, err)
			}
			if string(c) != string(b) {
				t.Fatalf("copy and borrow decode of %T disagree", cp)
			}
		}
	})
}
