package fabric

import (
	"bytes"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
)

// encodeLegacyRequest builds a retired pre-QoS 'Q' frame body: a 'T'
// header without its trailing zero identity (class byte and empty tenant
// length). parseRequest must refuse it.
func encodeLegacyRequest(reqID uint64, rpc string, from Address, sc obs.SpanContext, payload []byte) []byte {
	hdr := appendRequestHeader(nil, reqID, rpc, from, sc, qos.Identity{})
	hdr = hdr[:len(hdr)-3]
	hdr[0] = 'Q'
	return append(hdr, payload...)
}

// FuzzRequestHeaderRoundTrip: whatever identity/span/rpc combination goes
// through appendRequestHeader must come back identical from parseRequest,
// with the payload as an exact view of the remaining bytes.
func FuzzRequestHeaderRoundTrip(f *testing.F) {
	f.Add(uint64(1), "yokan:0#put", "inproc://client-1", uint64(7), uint64(8), byte(1), "nova", []byte("hello"))
	f.Add(uint64(0), "", "", uint64(0), uint64(0), byte(0), "", []byte(nil))
	f.Add(^uint64(0), "margo#ping", "tcp://127.0.0.1:9999", ^uint64(0), ^uint64(0), byte(2), "a-tenant-with-a-long-name", bytes.Repeat([]byte{0xab}, 300))
	f.Add(uint64(42), "get", "inproc://x", uint64(1), uint64(2), byte(200), string([]byte{0, 255, 7}), []byte{0})
	f.Fuzz(func(t *testing.T, reqID uint64, rpc, from string, trace, span uint64, class byte, tenant string, payload []byte) {
		if len(rpc) > 0xffff || len(from) > 0xffff || len(tenant) > 0xffff {
			t.Skip("length fields are u16 by contract")
		}
		sc := obs.SpanContext{Trace: trace, Span: span}
		ti := qos.Identity{Tenant: tenant, Class: qos.Class(class)}
		hdr := appendRequestHeader(nil, reqID, rpc, Address(from), sc, ti)
		if len(hdr) != requestHeaderLen(rpc, Address(from), ti) {
			t.Fatalf("requestHeaderLen = %d, appendRequestHeader produced %d bytes",
				requestHeaderLen(rpc, Address(from), ti), len(hdr))
		}
		body := append(hdr, payload...)
		gotID, gotRPC, gotFrom, gotSC, gotTI, gotPayload, err := parseRequest(body)
		if err != nil {
			t.Fatalf("parse of a self-encoded frame failed: %v", err)
		}
		if gotID != reqID || gotRPC != rpc || gotFrom != Address(from) {
			t.Fatalf("envelope mismatch: id=%d rpc=%q from=%q", gotID, gotRPC, gotFrom)
		}
		if gotSC != sc {
			t.Fatalf("span context mismatch: %+v != %+v", gotSC, sc)
		}
		if gotTI != ti {
			t.Fatalf("identity mismatch: %+v != %+v", gotTI, ti)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("payload mismatch: %d bytes != %d bytes", len(gotPayload), len(payload))
		}
	})
}

// FuzzParseRequestNoPanic: parseRequest over arbitrary bytes must return
// an error or a consistent parse — never panic, never read out of bounds.
func FuzzParseRequestNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'Q'})
	f.Add(encodeLegacyRequest(9, "put", "inproc://c", obs.SpanContext{Trace: 1, Span: 2}, []byte("x")))
	f.Add(appendRequestHeader(nil, 3, "get", "tcp://h:1", obs.SpanContext{}, qos.Identity{Tenant: "t", Class: qos.ClassBatch}))
	// Truncation seeds: a QoS frame cut inside each variable-length field.
	full := appendRequestHeader(nil, 5, "rpcname", "inproc://from", obs.SpanContext{Trace: 4, Span: 5}, qos.Identity{Tenant: "tenant", Class: 1})
	for _, cut := range []int{1, 9, 12, 20, len(full) - 3, len(full) - 1} {
		if cut > 0 && cut < len(full) {
			f.Add(full[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _, _, _, _, payload, err := parseRequest(body)
		if err != nil {
			return
		}
		// A successful parse's payload must be a view inside body.
		if len(payload) > len(body) {
			t.Fatalf("payload longer than frame: %d > %d", len(payload), len(body))
		}
	})
}

// Golden legacy frames: a tenant-less 'Q' body from a pre-QoS endpoint is
// refused, never parsed as some other envelope. No such peer exists; a
// connection speaking the retired format fails loudly.
func TestParseRequestLegacyGolden(t *testing.T) {
	cases := []struct {
		name    string
		reqID   uint64
		rpc     string
		from    Address
		sc      obs.SpanContext
		payload []byte
	}{
		{"plain", 7, "yokan:0#put_multi", "inproc://hepnos-client-1", obs.SpanContext{Trace: 111, Span: 222}, []byte("payload-bytes")},
		{"empty-fields", 0, "", "", obs.SpanContext{}, nil},
		{"no-span", 12345, "margo#ping", "tcp://127.0.0.1:4242", obs.SpanContext{}, []byte{1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := encodeLegacyRequest(tc.reqID, tc.rpc, tc.from, tc.sc, tc.payload)
			if reqID, rpc, _, _, _, _, err := parseRequest(body); err == nil {
				t.Fatalf("legacy frame accepted: id=%d rpc=%q", reqID, rpc)
			}
		})
	}
}

// A modern frame's identity survives even when the payload itself begins
// with bytes that look like another header — the header is length-framed,
// not sniffed.
func TestParseRequestPayloadLooksLikeHeader(t *testing.T) {
	inner := appendRequestHeader(nil, 99, "inner", "inproc://i", obs.SpanContext{}, qos.Identity{Tenant: "x"})
	body := appendRequestHeader(nil, 1, "outer", "inproc://o", obs.SpanContext{}, qos.Identity{Tenant: "real", Class: qos.ClassBatch})
	body = append(body, inner...)
	_, rpc, _, _, ti, payload, err := parseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if rpc != "outer" || ti.Tenant != "real" || ti.Class != qos.ClassBatch {
		t.Fatalf("outer envelope corrupted: rpc=%q ti=%+v", rpc, ti)
	}
	if !bytes.Equal(payload, inner) {
		t.Fatal("payload view does not match the embedded bytes")
	}
}

// FuzzDecodeBulkHandle: servers decode client-supplied bulk handles (the
// bulk-pull service, yokan's bulk put_multi and get_multi). The decoder
// must never panic and must refuse exactly the inputs shorter than a
// handle; on success, re-encoding the handle reproduces the 16 bytes it
// read and rest is the untouched remainder of src.
func FuzzDecodeBulkHandle(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(bytes.Repeat([]byte{0xff}, 15))
	f.Add(BulkHandle{ID: 7, Size: 4096}.Encode(nil))
	f.Add(BulkHandle{ID: ^uint64(0), Size: ^uint64(0)}.Encode(nil))
	f.Add(append(BulkHandle{ID: 1, Size: 2}.Encode(nil), "trailing keys"...))
	f.Fuzz(func(t *testing.T, src []byte) {
		h, rest, err := DecodeBulkHandle(src)
		if err != nil {
			if len(src) >= 16 {
				t.Fatalf("refused a %d-byte input: %v", len(src), err)
			}
			return
		}
		if len(src) < 16 {
			t.Fatalf("decoded a %d-byte input as %+v", len(src), h)
		}
		if enc := h.Encode(nil); !bytes.Equal(enc, src[:16]) {
			t.Fatalf("Encode(%+v) = %x, decoded from %x", h, enc, src[:16])
		}
		if len(rest) != len(src)-16 || (len(rest) > 0 && &rest[0] != &src[16]) {
			t.Fatalf("rest is not src[16:]: %d bytes of %d", len(rest), len(src))
		}
	})
}
