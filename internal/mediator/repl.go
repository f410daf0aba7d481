package mediator

import (
	"sync"

	"barter/internal/catalog"
	"barter/internal/perfstats"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// replQueue bounds the records a link holds for its sibling: a stalled one
// costs memory for 1024 small messages and never an answer to a client.
const replQueue = 1024

// replLink is the tier's one replication path: this shard's write-through to
// one sibling. Records ride a persistent, lazily dialled connection as
// Envelope{ReqID: 0} — applied by the sibling, never answered, never forwarded
// on. Best effort: a record that finds the queue full, or meets a dial or send
// error, is dropped and counted (perfstats); the next redials the sibling's
// address, which a restart keeps.
type replLink struct {
	m      *Mediator
	target int
	queue  chan protocol.Message

	mu   sync.Mutex
	conn transport.Conn // nil until the first record, and again after any error
}

// replicate queues msg — a deposit this shard applied as primary, or a verdict
// it reached — for obj's other owner. It never blocks.
func (m *Mediator) replicate(obj catalog.ObjectID, msg protocol.Message) {
	if m.links == nil {
		return // a tier of one: there is no other owner
	}
	target, replica := ShardFor(obj, m.shard.Count)
	if target == m.shard.Index {
		target = replica
	}
	select {
	case m.links[target].queue <- msg:
	default:
		perfstats.AddMedReplDropped()
	}
}

// run is the link's sender, started by NewShard and stopped by Close.
func (l *replLink) run() {
	defer l.m.wg.Done()
	for {
		select {
		case <-l.m.stop:
			return
		case msg := <-l.queue:
			if conn := l.dial(); conn == nil {
				perfstats.AddMedReplDropped()
			} else if err := conn.Send(&protocol.Envelope{Msg: msg}); err != nil {
				perfstats.AddMedReplDropped()
				l.retire(conn)
			} else {
				perfstats.AddMedReplicated()
			}
		}
	}
}

// dial returns the link's connection, opening one to the sibling's address if
// there is none; nil means the sibling is unreachable right now.
func (l *replLink) dial() transport.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		return l.conn
	}
	addrs := l.m.shard.Map()
	if l.target >= len(addrs) || addrs[l.target] == "" {
		return nil
	}
	conn, err := l.m.tr.Dial(addrs[l.target])
	if err != nil {
		return nil
	}
	// Tracked like an inbound connection, so Close unblocks both ends of it.
	if !l.m.track(conn) {
		_ = conn.Close()
		return nil
	}
	l.conn = conn
	// Nothing is ever answered on a link: the reader is there to see the
	// sibling go away, so that no record is written into a dead socket.
	l.m.wg.Add(1)
	go func() {
		defer l.m.wg.Done()
		for {
			if _, err := conn.Recv(); err != nil {
				l.retire(conn)
				return
			}
		}
	}()
	return conn
}

// retire closes conn; if it is still the link's, the next record redials.
func (l *replLink) retire(conn transport.Conn) {
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
	l.m.untrack(conn)
	_ = conn.Close()
}
