package fabric

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// Wire format (all integers little-endian):
//
//	frame   = u32 length, body
//	request = 'T', u64 reqID, u16 rpcLen, rpc, u16 fromLen, from,
//	          u64 trace, u64 span, u8 class, u16 tenantLen, tenant,
//	          payload
//	reply   = 'S', u64 reqID, u8 status, u8 pressure, payload
//
// trace/span carry the caller's span context (zero when untraced);
// class/tenant carry the caller's QoS identity, and pressure carries the
// server's backpressure level (0 relaxed .. 255 saturated) back on every
// reply. Any other frame kind is refused.
//
// status 0 is success; 1 is an application error whose message follows
// as a flat string (the legacy path, kept for handlers whose errors carry
// no classification); 2 is an injected server-side fault (chaos testing)
// that the caller must treat as a transport-level loss, not an
// application error; 3 is a typed QoS shed whose payload is the encoded
// qos.ShedError; 4 is a typed error whose payload is an xerr wire frame —
// class, sentinel code, message and fields — so a server-side not_found
// arrives at the client as the same typed error it left as.
const (
	frameRequestQoS = 'T'
	frameReplyQoS   = 'S'

	statusOK    = 0
	statusErr   = 1
	statusFault = 2
	statusShed  = 3
	statusTyped = 4

	maxFrame = 1 << 30 // sanity cap: 1 GiB per message
)

type tcpTransport struct {
	self *Endpoint
	ln   net.Listener
	addr Address

	mu    sync.Mutex
	conns map[Address]*tcpConn // outgoing connection pool
	done  chan struct{}
	wg    sync.WaitGroup
}

func listenTCP(e *Endpoint, addr Address) (transport, Address, error) {
	hostport := strings.TrimPrefix(string(addr), "tcp://")
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, "", fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	t := &tcpTransport{
		self:  e,
		ln:    ln,
		addr:  Address("tcp://" + ln.Addr().String()),
		conns: make(map[Address]*tcpConn),
		done:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, t.addr, nil
}

func (t *tcpTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			return
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveConn(c)
		}()
	}
}

// serveConn handles inbound frames from one peer connection. Requests are
// dispatched concurrently; replies are matched to pending outgoing calls
// (the same connection carries both directions, so bulk pulls from a server
// back to a client reuse the client's dialed connection).
func (t *tcpTransport) serveConn(nc net.Conn) {
	c := &tcpConn{nc: nc, pending: make(map[uint64]chan tcpReply)}
	t.connLoop(c)
}

func (t *tcpTransport) connLoop(c *tcpConn) {
	defer c.nc.Close()
	for {
		buf, err := readFrame(c.nc)
		if err != nil {
			c.failAll(err)
			return
		}
		body := buf.B
		if len(body) == 0 {
			buf.Release()
			c.failAll(fmt.Errorf("fabric: empty frame"))
			return
		}
		switch body[0] {
		case frameRequestQoS:
			// The payload is a borrowed view into the pooled frame buffer —
			// no clone. The goroutine owns the frame: serve (and therefore
			// the handler) completes before the reply is written, after
			// which the frame is recycled. serve is given a background
			// context precisely so it cannot return while the handler is
			// still reading the borrowed payload.
			reqID, rpc, from, sc, ti, payload, err := parseRequest(body)
			if err != nil {
				buf.Release()
				c.failAll(err)
				return
			}
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				defer buf.Release()
				resp, pressure, herr := t.self.serve(context.Background(), from, rpc, payload, sc, ti)
				if herr != nil {
					status := byte(statusErr)
					msg := []byte(herr.Error())
					var inj *InjectedFault
					var shed *qos.ShedError
					switch {
					case errors.As(herr, &inj):
						status = statusFault
					case errors.As(herr, &shed):
						status = statusShed
						msg = shed.AppendWire(msg[:0])
					case xerr.Wireable(herr):
						// Classified errors cross typed: the client decodes
						// the same class/sentinel identity instead of a
						// string-laundered RemoteError.
						status = statusTyped
						msg = xerr.AppendWire(msg[:0], herr)
					}
					c.writeReply(reqID, status, pressure, msg)
				} else {
					c.writeReply(reqID, statusOK, pressure, resp)
				}
			}()
		case frameReplyQoS:
			reqID, status, pressure, payload, perr := parseReply(body)
			if perr != nil {
				buf.Release()
				c.failAll(perr)
				return
			}
			// Ownership of the frame transfers to the waiting caller: the
			// payload is a borrowed view and done recycles the buffer. If
			// no caller is waiting (canceled), deliver releases it.
			c.deliver(reqID, tcpReply{status: status, pressure: pressure, payload: payload, done: buf.Release})
		default:
			buf.Release()
			c.failAll(fmt.Errorf("fabric: unknown frame kind %q", body[0]))
			return
		}
	}
}

func (t *tcpTransport) call(ctx context.Context, target Address, rpc string, payload []byte, sc obs.SpanContext, ti qos.Identity) ([]byte, uint8, func(), error) {
	c, err := t.getConn(target)
	if err != nil {
		return nil, 0, nil, err
	}
	reqID, ch := c.newPending()
	if err := c.writeRequest(reqID, rpc, t.addr, sc, ti, payload); err != nil {
		c.cancelPending(reqID)
		t.dropConn(target, c)
		return nil, 0, nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, target, err)
	}
	select {
	case r, ok := <-ch:
		if !ok {
			return nil, 0, nil, fmt.Errorf("%w: %s: connection lost", ErrUnreachable, target)
		}
		if r.status == statusFault {
			err := &InjectedFault{Err: fmt.Errorf("%w: %s dropped %s: %s", ErrUnreachable, target, rpc, r.payload)}
			r.release()
			return nil, r.pressure, nil, err
		}
		if r.status == statusShed {
			shed := qos.ParseShedWire(r.payload)
			r.release()
			return nil, r.pressure, nil, shed
		}
		if r.status == statusTyped {
			// ParseWire copies everything it needs out of the payload, so
			// the frame can be recycled before the error escapes.
			err := xerr.ParseWire(r.payload)
			r.release()
			return nil, r.pressure, nil, err
		}
		if r.status == statusErr {
			err := &RemoteError{RPC: rpc, Msg: string(r.payload)}
			r.release()
			return nil, r.pressure, nil, err
		}
		return r.payload, r.pressure, r.done, nil
	case <-ctx.Done():
		c.cancelPending(reqID)
		return nil, 0, nil, ctx.Err()
	}
}

func (t *tcpTransport) getConn(target Address) (*tcpConn, error) {
	t.mu.Lock()
	if c, ok := t.conns[target]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	hostport := strings.TrimPrefix(string(target), "tcp://")
	nc, err := net.Dial("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, target, err)
	}
	c := &tcpConn{nc: nc, pending: make(map[uint64]chan tcpReply)}

	t.mu.Lock()
	if existing, ok := t.conns[target]; ok {
		t.mu.Unlock()
		nc.Close()
		return existing, nil
	}
	t.conns[target] = c
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.connLoop(c)
		t.dropConn(target, c)
	}()
	return c, nil
}

func (t *tcpTransport) dropConn(target Address, c *tcpConn) {
	t.mu.Lock()
	if t.conns[target] == c {
		delete(t.conns, target)
	}
	t.mu.Unlock()
	c.failAll(fmt.Errorf("connection dropped"))
	c.nc.Close()
}

func (t *tcpTransport) close() error {
	close(t.done)
	err := t.ln.Close()
	t.mu.Lock()
	for a, c := range t.conns {
		c.nc.Close()
		delete(t.conns, a)
	}
	t.mu.Unlock()
	// Do not wait for handler goroutines: a handler may be blocked on a
	// call to another endpoint that is also closing.
	return err
}

type tcpReply struct {
	status   byte
	pressure byte   // server-push backpressure from the 'S' envelope
	payload  []byte // borrowed view into a pooled frame buffer
	done     func() // recycles the frame; nil-safe via release
}

func (r tcpReply) release() {
	if r.done != nil {
		r.done()
	}
}

// tcpConn wraps one socket with request/reply correlation state.
type tcpConn struct {
	nc net.Conn

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	nextID  uint64
	pending map[uint64]chan tcpReply
	dead    bool
}

func (c *tcpConn) newPending() (uint64, chan tcpReply) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	c.nextID++
	ch := make(chan tcpReply, 1)
	c.pending[c.nextID] = ch
	return c.nextID, ch
}

func (c *tcpConn) cancelPending(id uint64) {
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
}

func (c *tcpConn) deliver(id uint64, r tcpReply) {
	c.pmu.Lock()
	ch, ok := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if ok {
		ch <- r
	} else {
		// The caller gave up (canceled): nobody will ever read this reply,
		// so the frame goes straight back to the pool.
		r.release()
	}
}

// failAll closes every pending reply channel; waiting callers observe a
// lost connection.
func (c *tcpConn) failAll(error) {
	c.pmu.Lock()
	if c.dead {
		c.pmu.Unlock()
		return
	}
	c.dead = true
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.pmu.Unlock()
}

// appendRequestHeader appends the 'T' request body header — everything
// before the payload — to b. Pure (no I/O, no pooling), so the fuzz suite
// round-trips it directly against parseRequest.
func appendRequestHeader(b []byte, reqID uint64, rpc string, from Address, sc obs.SpanContext, ti qos.Identity) []byte {
	var u8 [8]byte
	b = append(b, frameRequestQoS)
	binary.LittleEndian.PutUint64(u8[:], reqID)
	b = append(b, u8[:]...)
	binary.LittleEndian.PutUint16(u8[:2], uint16(len(rpc)))
	b = append(b, u8[:2]...)
	b = append(b, rpc...)
	binary.LittleEndian.PutUint16(u8[:2], uint16(len(from)))
	b = append(b, u8[:2]...)
	b = append(b, from...)
	binary.LittleEndian.PutUint64(u8[:], sc.Trace)
	b = append(b, u8[:]...)
	binary.LittleEndian.PutUint64(u8[:], sc.Span)
	b = append(b, u8[:]...)
	b = append(b, byte(ti.Class))
	binary.LittleEndian.PutUint16(u8[:2], uint16(len(ti.Tenant)))
	b = append(b, u8[:2]...)
	b = append(b, ti.Tenant...)
	return b
}

// requestHeaderLen is the byte length appendRequestHeader will produce.
func requestHeaderLen(rpc string, from Address, ti qos.Identity) int {
	return 1 + 8 + 2 + len(rpc) + 2 + len(from) + 16 + 1 + 2 + len(ti.Tenant)
}

// writeRequest sends a request frame scatter-gather style: the header is
// built in a small pooled buffer and the payload is handed to the kernel as
// a second iovec (net.Buffers → writev), so the payload bytes are never
// copied into an intermediate frame allocation.
func (c *tcpConn) writeRequest(reqID uint64, rpc string, from Address, sc obs.SpanContext, ti qos.Identity, payload []byte) error {
	hdrLen := requestHeaderLen(rpc, from, ti)
	hdr := wire.Acquire(4 + hdrLen)
	defer hdr.Release()
	b := hdr.B[:4]
	binary.LittleEndian.PutUint32(b, uint32(hdrLen+len(payload)))
	b = appendRequestHeader(b, reqID, rpc, from, sc, ti)
	hdr.B = b
	return c.writev(b, payload)
}

// writeReply sends an 'S' reply frame — status plus the server's pushed
// pressure level — likewise header-pooled + writev.
func (c *tcpConn) writeReply(reqID uint64, status, pressure byte, payload []byte) error {
	hdr := wire.Acquire(4 + 1 + 8 + 1 + 1)
	defer hdr.Release()
	body := 1 + 8 + 1 + 1 + len(payload)
	b := hdr.B[:15]
	binary.LittleEndian.PutUint32(b[0:], uint32(body))
	b[4] = frameReplyQoS
	binary.LittleEndian.PutUint64(b[5:], reqID)
	b[13] = status
	b[14] = pressure
	hdr.B = b
	return c.writev(b, payload)
}

// writev writes header and payload as one atomic frame under the write
// lock, using vectored I/O so neither part is re-copied.
func (c *tcpConn) writev(hdr, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(payload) == 0 {
		_, err := c.nc.Write(hdr)
		return err
	}
	bufs := net.Buffers{hdr, payload}
	_, err := bufs.WriteTo(c.nc)
	return err
}

// readFrame reads one length-prefixed frame into a pooled buffer. The
// caller owns the returned Buf and must Release it when the frame (and
// every borrowed view into it) is dead.
func readFrame(r io.Reader) (*wire.Buf, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("fabric: frame of %d bytes exceeds limit", n)
	}
	buf := wire.Acquire(int(n))
	body := buf.B[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		buf.Release()
		return nil, err
	}
	buf.B = body
	return buf, nil
}

// parseReply decodes an 'S' reply frame body. Pure (no I/O, no pooling),
// so the golden/fuzz suite pins the format directly; the returned payload
// is a view into body.
func parseReply(body []byte) (reqID uint64, status, pressure byte, payload []byte, err error) {
	if len(body) == 0 || body[0] != frameReplyQoS {
		return 0, 0, 0, nil, errors.New("fabric: not a reply frame")
	}
	if len(body) < 11 {
		return 0, 0, 0, nil, errors.New("fabric: short reply frame")
	}
	return binary.LittleEndian.Uint64(body[1:9]), body[9], body[10], body[11:], nil
}

func parseRequest(body []byte) (reqID uint64, rpc string, from Address, sc obs.SpanContext, ti qos.Identity, payload []byte, err error) {
	fail := func(msg string) (uint64, string, Address, obs.SpanContext, qos.Identity, []byte, error) {
		return 0, "", "", obs.SpanContext{}, qos.Identity{}, nil, errors.New("fabric: " + msg)
	}
	if len(body) < 11 {
		return fail("short request frame")
	}
	if body[0] != frameRequestQoS {
		return fail("not a request frame")
	}
	reqID = binary.LittleEndian.Uint64(body[1:9])
	rpcLen := int(binary.LittleEndian.Uint16(body[9:11]))
	if len(body) < 11+rpcLen+2 {
		return fail("truncated rpc name")
	}
	rpc = string(body[11 : 11+rpcLen])
	off := 11 + rpcLen
	fromLen := int(binary.LittleEndian.Uint16(body[off : off+2]))
	if len(body) < off+2+fromLen+16 {
		return fail("truncated from address or span context")
	}
	from = Address(body[off+2 : off+2+fromLen])
	off += 2 + fromLen
	sc.Trace = binary.LittleEndian.Uint64(body[off : off+8])
	sc.Span = binary.LittleEndian.Uint64(body[off+8 : off+16])
	off += 16
	// The QoS identity sits between the span context and the payload.
	if len(body) < off+3 {
		return fail("truncated qos identity")
	}
	ti.Class = qos.Class(body[off])
	tenantLen := int(binary.LittleEndian.Uint16(body[off+1 : off+3]))
	if len(body) < off+3+tenantLen {
		return fail("truncated tenant name")
	}
	ti.Tenant = string(body[off+3 : off+3+tenantLen])
	off += 3 + tenantLen
	// The payload is a borrowed view into the frame body, not a clone; the
	// frame's owner keeps it alive until the handler has replied.
	payload = body[off:]
	return reqID, rpc, from, sc, ti, payload, nil
}
