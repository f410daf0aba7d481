package transport

import (
	"fmt"
	"sync"

	"barter/internal/protocol"
)

// Mem is an in-process transport: listeners are registered in a shared
// registry by name, and connections are paired message channels. It gives
// tests and in-process swarms real concurrency with zero syscalls.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	nextAuto  int
}

var _ Transport = (*Mem)(nil)

// NewMem returns an empty in-memory network.
func NewMem() *Mem {
	return &Mem{listeners: make(map[string]*memListener)}
}

// Listen implements Transport.
func (m *Mem) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		m.nextAuto++
		addr = fmt.Sprintf("mem://auto-%d", m.nextAuto)
	}
	if _, taken := m.listeners[addr]; taken {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &memListener{
		net:     m,
		addr:    addr,
		backlog: make(chan *memConn, 16),
		done:    make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (m *Mem) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	client, server := pipe(addr, "mem://dialer")
	select {
	case l.backlog <- server:
	case <-l.done:
		return nil, ErrClosed
	}
	// The listener may have closed as the connection was queued, after its
	// Close drained the backlog: nobody will ever accept this one.
	select {
	case <-l.done:
		_ = client.Close()
		return nil, ErrClosed
	default:
		return client, nil
	}
}

func (m *Mem) drop(addr string) {
	m.mu.Lock()
	delete(m.listeners, addr)
	m.mu.Unlock()
}

type memListener struct {
	net     *Mem
	addr    string
	backlog chan *memConn
	done    chan struct{}
	once    sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close stops the listener and resets every connection still waiting in the
// backlog, as a kernel would: a dialer whose connection nobody will accept
// must see it closed, not block on it forever.
func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.drop(l.addr)
		for {
			select {
			case c := <-l.backlog:
				_ = c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// memConn is one endpoint of a paired in-memory connection.
type memConn struct {
	remote string
	out    chan<- protocol.Message
	in     <-chan protocol.Message
	// closed is shared between both endpoints: closing either side tears
	// down the pair, like a TCP reset.
	closed chan struct{}
	once   *sync.Once
}

// pipe builds a connected pair; a's sends arrive at b's Recv and vice versa.
func pipe(aRemote, bRemote string) (a, b *memConn) {
	ab := make(chan protocol.Message, 64)
	ba := make(chan protocol.Message, 64)
	closed := make(chan struct{})
	once := &sync.Once{}
	a = &memConn{remote: aRemote, out: ab, in: ba, closed: closed, once: once}
	b = &memConn{remote: bRemote, out: ba, in: ab, closed: closed, once: once}
	return a, b
}

func (c *memConn) Send(msg protocol.Message) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	select {
	case c.out <- msg:
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

func (c *memConn) Recv() (protocol.Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.closed:
		// Drain anything already queued before reporting closure, so an
		// orderly shutdown does not drop in-flight messages.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *memConn) RemoteAddr() string { return c.remote }
