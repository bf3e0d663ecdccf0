package netio

import (
	"sync"
	"sync/atomic"
)

// PortMux is the port-to-handler table every substrate shares. Writers
// (Handle, during channel setup and reconfiguration) serialise on a mutex
// and republish a read-only snapshot; the per-frame lookup on the delivery
// hot path is a lock-free atomic load. The zero value is ready to use.
type PortMux struct {
	mu   sync.Mutex
	m    map[string]Handler
	view atomic.Pointer[map[string]portEntry]
}

// portEntry carries the registered port name beside its handler, so a lookup
// keyed by bytes still in a receive buffer can hand the handler a string
// without making one.
type portEntry struct {
	port string
	h    Handler
}

// Set registers (or, with a nil handler, removes) the receiver for a port.
func (p *PortMux) Set(port string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[string]Handler)
	}
	if h == nil {
		delete(p.m, port)
	} else {
		p.m[port] = h
	}
	view := make(map[string]portEntry, len(p.m))
	for k, v := range p.m {
		view[k] = portEntry{k, v}
	}
	p.view.Store(&view)
}

// Get looks up the receiver for a port without locking.
func (p *PortMux) Get(port string) (Handler, bool) {
	view := p.view.Load()
	if view == nil {
		return nil, false
	}
	e, ok := (*view)[port]
	return e.h, ok
}

// GetBytes is Get for a port name still sitting in a receive buffer: it
// borrows port, allocates nothing, and returns the name as registered.
func (p *PortMux) GetBytes(port []byte) (string, Handler, bool) {
	view := p.view.Load()
	if view == nil {
		return "", nil, false
	}
	e, ok := (*view)[string(port)]
	return e.port, e.h, ok
}
