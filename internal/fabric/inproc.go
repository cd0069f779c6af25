package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// inprocRegistry maps inproc addresses to live endpoints within the
// process, playing the role Mercury's shared-memory NA plugin plays between
// co-located processes.
var inprocRegistry = struct {
	sync.RWMutex
	eps map[Address]*Endpoint
}{eps: make(map[Address]*Endpoint)}

type inprocTransport struct {
	self *Endpoint
	addr Address
}

func listenInproc(e *Endpoint, addr Address) (transport, Address, error) {
	name := string(addr)
	if name == "inproc://" || addr.Scheme() != "inproc" {
		return nil, "", fmt.Errorf("fabric: bad inproc address %q", addr)
	}
	inprocRegistry.Lock()
	defer inprocRegistry.Unlock()
	if _, exists := inprocRegistry.eps[addr]; exists {
		return nil, "", fmt.Errorf("fabric: inproc address %q already in use", addr)
	}
	inprocRegistry.eps[addr] = e
	return &inprocTransport{self: e, addr: addr}, addr, nil
}

func (t *inprocTransport) call(ctx context.Context, target Address, rpc string, payload []byte, sc obs.SpanContext, ti qos.Identity) ([]byte, uint8, func(), error) {
	inprocRegistry.RLock()
	dst, ok := inprocRegistry.eps[target]
	inprocRegistry.RUnlock()
	if !ok {
		return nil, 0, nil, fmt.Errorf("%w: %s", ErrUnreachable, target)
	}
	// Copy the payload so caller and handler never alias memory, the same
	// isolation a real wire provides. This copy is load-bearing: call can
	// return early on ctx cancellation while the handler is still reading
	// the payload, so the caller must stay free to recycle its own buffer
	// the moment call returns.
	var in []byte
	if payload != nil {
		in = append([]byte(nil), payload...)
	}
	// serve runs the handler inline and inproc has no connection goroutine
	// of its own, so serve runs on a goroutine here and the caller races it
	// against ctx: a cancelled caller leaves while the handler still runs.
	type result struct {
		resp     []byte
		pressure uint8
		err      error
	}
	done := make(chan result, 1)
	go func() {
		resp, pressure, err := dst.serve(ctx, t.addr, rpc, in, sc, ti)
		done <- result{resp, pressure, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-ctx.Done():
		return nil, dst.pressure(), nil, ctx.Err()
	}
	resp, pressure, err := r.resp, r.pressure, r.err
	if err != nil {
		// Injected server-side faults are message losses: they cross as
		// transport failures, since the handler never executed.
		var inj *InjectedFault
		if errors.As(err, &inj) {
			return nil, pressure, nil, err
		}
		// Typed sheds cross typed — on a real wire they travel as their
		// own status code, and callers must see *qos.ShedError, never a
		// timeout or a generic remote failure.
		var shed *qos.ShedError
		if errors.As(err, &shed) {
			return nil, pressure, nil, shed
		}
		// The caller's own cancellation is not a remote answer; it passes
		// through untouched.
		if ctx.Err() != nil {
			return nil, pressure, nil, err
		}
		// Classified errors cross as remote-marked typed errors — the
		// inproc analog of the tcp transport's statusTyped frame. Class,
		// sentinel identity and unwrap chain survive; the remote mark
		// records that a handler answered.
		if xerr.Wireable(err) {
			return nil, pressure, nil, xerr.AsRemote(err)
		}
		// Unclassified application errors cross the "wire" as RemoteError,
		// like a serialized Mercury response with an error code.
		if _, isRemote := err.(*RemoteError); !isRemote {
			err = &RemoteError{RPC: rpc, Msg: err.Error()}
		}
		return nil, pressure, nil, err
	}
	// The response crosses without a copy: handlers build fresh GC-owned
	// responses and never touch them after returning (on the early-return
	// race the abandoned response is simply dropped), so aliasing is safe.
	// done is nil — there is no pooled receive buffer to give back.
	return resp, pressure, nil, nil
}

func (t *inprocTransport) close() error {
	inprocRegistry.Lock()
	delete(inprocRegistry.eps, t.addr)
	inprocRegistry.Unlock()
	return nil
}
