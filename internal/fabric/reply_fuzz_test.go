package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// encodeQoSReply builds a modern 'S' body, the shape writeReply emits.
func encodeQoSReply(reqID uint64, status, pressure byte, payload []byte) []byte {
	b := []byte{frameReplyQoS}
	var u8 [8]byte
	binary.LittleEndian.PutUint64(u8[:], reqID)
	b = append(b, u8[:]...)
	b = append(b, status, pressure)
	return append(b, payload...)
}

// Golden reply frames: every status code a peer can emit, plus the retired
// pre-QoS 'R' layout (no pressure byte), which must be refused rather than
// misparsed. Byte layouts are pinned literally, so these arrays must never
// change.
func TestParseReplyGolden(t *testing.T) {
	cases := []struct {
		name     string
		body     []byte
		refused  bool
		reqID    uint64
		status   byte
		pressure byte
		payload  []byte
	}{
		{
			name:    "legacy-ok",
			body:    []byte{'R', 7, 0, 0, 0, 0, 0, 0, 0, statusOK, 'h', 'i'},
			refused: true,
		},
		{
			name:    "legacy-err-string",
			body:    []byte{'R', 1, 0, 0, 0, 0, 0, 0, 0, statusErr, 'b', 'o', 'o', 'm'},
			refused: true,
		},
		{
			name:    "legacy-fault",
			body:    []byte{'R', 2, 0, 0, 0, 0, 0, 0, 0, statusFault},
			refused: true,
		},
		{
			name:  "qos-ok-with-pressure",
			body:  []byte{'S', 9, 0, 0, 0, 0, 0, 0, 0, statusOK, 200, 'v'},
			reqID: 9, status: statusOK, pressure: 200, payload: []byte("v"),
		},
		{
			name:  "qos-shed",
			body:  append([]byte{'S', 3, 0, 0, 0, 0, 0, 0, 0, statusShed, 128}, (&qos.ShedError{Tenant: "nova", Reason: "queue full"}).AppendWire(nil)...),
			reqID: 3, status: statusShed, pressure: 128,
			payload: (&qos.ShedError{Tenant: "nova", Reason: "queue full"}).AppendWire(nil),
		},
		{
			name:  "qos-typed",
			body:  append([]byte{'S', 4, 0, 0, 0, 0, 0, 0, 0, statusTyped, 0}, xerr.AppendWire(nil, xerr.Sentinel("test/reply_golden", xerr.ClassNotFound, "gone"))...),
			reqID: 4, status: statusTyped, pressure: 0,
			payload: xerr.AppendWire(nil, xerr.Sentinel("test/reply_golden", xerr.ClassNotFound, "gone")),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqID, status, pressure, payload, err := parseReply(tc.body)
			if tc.refused {
				if err == nil {
					t.Fatalf("retired frame accepted: id=%d status=%d", reqID, status)
				}
				return
			}
			if err != nil {
				t.Fatalf("golden frame rejected: %v", err)
			}
			if reqID != tc.reqID || status != tc.status || pressure != tc.pressure {
				t.Fatalf("envelope mismatch: id=%d status=%d pressure=%d", reqID, status, pressure)
			}
			if !bytes.Equal(payload, tc.payload) {
				t.Fatalf("payload mismatch: %q != %q", payload, tc.payload)
			}
		})
	}
}

// The decoded payload of a golden shed frame must still parse into the
// typed ShedError, and a typed frame into the matching sentinel — the
// end-to-end contract the statuses exist for.
func TestParseReplyGoldenPayloadsDecode(t *testing.T) {
	shedBody := encodeQoSReply(3, statusShed, 0,
		(&qos.ShedError{Tenant: "nova", Class: qos.ClassBatch, Reason: "rate limit"}).AppendWire(nil))
	_, status, _, payload, err := parseReply(shedBody)
	if err != nil || status != statusShed {
		t.Fatalf("shed frame: status=%d err=%v", status, err)
	}
	shed := qos.ParseShedWire(payload)
	if shed.Tenant != "nova" || shed.Class != qos.ClassBatch || shed.Reason != "rate limit" {
		t.Fatalf("shed payload mangled: %+v", shed)
	}

	sentinel := xerr.Sentinel("test/reply_decode", xerr.ClassConflict, "lost the race")
	typedBody := encodeQoSReply(4, statusTyped, 0, xerr.AppendWire(nil, sentinel))
	_, status, _, payload, err = parseReply(typedBody)
	if err != nil || status != statusTyped {
		t.Fatalf("typed frame: status=%d err=%v", status, err)
	}
	decoded := xerr.ParseWire(payload)
	if !errors.Is(decoded, sentinel) {
		t.Fatalf("typed payload lost sentinel identity: %v", decoded)
	}
	if xerr.ClassOf(decoded) != xerr.ClassConflict || !xerr.IsRemote(decoded) {
		t.Fatalf("typed payload lost class or remote mark: %v", decoded)
	}
}

// FuzzReplyRoundTrip: any encoded envelope must come back identical from
// parseReply.
func FuzzReplyRoundTrip(f *testing.F) {
	f.Add(uint64(1), byte(statusOK), byte(0), []byte("resp"))
	f.Add(uint64(0), byte(statusErr), byte(255), []byte(nil))
	f.Add(^uint64(0), byte(statusTyped), byte(128), bytes.Repeat([]byte{0xee}, 300))
	f.Add(uint64(42), byte(99), byte(1), []byte{0, 'R', 0})
	f.Fuzz(func(t *testing.T, reqID uint64, status, pressure byte, payload []byte) {
		body := encodeQoSReply(reqID, status, pressure, payload)
		gotID, gotStatus, gotPressure, gotPayload, err := parseReply(body)
		if err != nil {
			t.Fatalf("parse of a self-encoded frame failed: %v", err)
		}
		if gotID != reqID || gotStatus != status || gotPressure != pressure {
			t.Fatalf("envelope mismatch: id=%d status=%d pressure=%d", gotID, gotStatus, gotPressure)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("payload mismatch: %d bytes != %d bytes", len(gotPayload), len(payload))
		}
	})
}

// FuzzParseReplyNoPanic: arbitrary bytes must produce an error or a
// consistent parse — never a panic or an out-of-bounds payload.
func FuzzParseReplyNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'R'})
	f.Add([]byte{frameReplyQoS, 1, 2, 3})
	f.Add([]byte{'R', 5, 0, 0, 0, 0, 0, 0, 0, statusOK, 'x'}) // retired pre-QoS layout
	f.Add(encodeQoSReply(6, statusShed, 9, []byte("y")))
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _, _, payload, err := parseReply(body)
		if err != nil {
			return
		}
		if len(payload) > len(body) {
			t.Fatalf("payload longer than frame: %d > %d", len(payload), len(body))
		}
	})
}
