// Package transport abstracts the byte transport under the live peer
// protocol: an in-memory implementation for tests and examples, and a TCP
// implementation for real deployments. Both carry protocol.Message frames.
package transport

import (
	"errors"

	"barter/internal/protocol"
)

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// Conn is a reliable, ordered, message-oriented duplex connection.
type Conn interface {
	// Send writes one message as one frame. It is safe for concurrent use.
	Send(msg protocol.Message) error
	// Recv blocks until a message arrives or the connection closes.
	Recv() (protocol.Message, error)
	// Close releases the connection; pending Recv calls fail.
	Close() error
	// RemoteAddr names the other endpoint (best effort).
	RemoteAddr() string
}

// Batcher is a Conn that can write several messages in one write. It is
// optional, so a decorator that embeds Conn still sees every frame through
// its own Send.
type Batcher interface {
	// SendBatch writes msgs in order, as the same frames Send would write.
	SendBatch(msgs []protocol.Message) error
}

// SendAll writes msgs to c in order: in one SendBatch when c is a Batcher,
// otherwise one Send per message.
func SendAll(c Conn, msgs []protocol.Message) error {
	if b, ok := c.(Batcher); ok {
		return b.SendBatch(msgs)
	}
	for _, msg := range msgs {
		if err := c.Send(msg); err != nil {
			return err
		}
	}
	return nil
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a connection arrives or the listener closes.
	Accept() (Conn, error)
	// Close stops accepting; pending Accepts fail.
	Close() error
	// Addr is the bound address peers should dial.
	Addr() string
}

// Transport creates listeners and outbound connections.
type Transport interface {
	// Listen binds addr and returns a listener. For the in-memory
	// transport, addr is any unique name; empty means auto-assign. For
	// TCP, addr is a host:port (":0" auto-assigns).
	Listen(addr string) (Listener, error)
	// Dial connects to a listener's address.
	Dial(addr string) (Conn, error)
}
