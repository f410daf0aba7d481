package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"barter/internal/catalog"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// span is one timed call the harness made into a layer. Times are
// nanoseconds since the tracer started. Parent is the id of the span that
// caused it (0 = none); spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans in memory and writes them out when the slice ends.
// A nil *tracer is the untraced configuration: every method is a no-op, so
// the untraced rounds pay one nil check per call site and nothing else.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// add records a span that already ended and lasted d (no-op when tracing is
// off): for calls whose parent is only known once they return.
func (t *tracer) add(name string, d time.Duration, parent, op int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: end - int64(d), End: end, Parent: parent, Op: op})
	t.mu.Unlock()
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerSummary is one span name's totals: how often it ran, how long in
// all, and its self time — duration minus the part its children cover.
type layerSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarize computes per-name totals and self times. A parent's children may
// overlap each other (two reader goroutines waiting at once), so the covered
// part is the union of the child intervals clipped to the parent.
func summarize(spans []span) []layerSummary {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*layerSummary)
	var names []string
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed: the slice aborted inside it
		}
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerSummary{Name: s.Name}
			byName[s.Name] = ls
			names = append(names, s.Name)
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			cs, ce := spans[k].Start, spans[k].End
			if ce > s.End {
				ce = s.End
			}
			if cs < cursor {
				cs = cursor
			}
			if ce > cs {
				covered += ce - cs
				cursor = ce
			}
		}
		dur := s.End - s.Start
		ls.Count++
		ls.TotalS += float64(dur) / 1e9
		ls.SelfS += float64(dur-covered) / 1e9
	}
	sort.Strings(names)
	out := make([]layerSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// write stores the spans and their per-layer summary as one JSON document.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := struct {
		Workload string         `json:"workload"`
		Layers   []layerSummary `json:"layers"`
		Spans    []span         `json:"spans"`
	}{workload, summarize(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedTransport decorates a transport for the traced round: it counts and
// times every Dial, Send and Recv the live stack makes, from outside. The
// untraced rounds hand the bare transport to the stack instead.
type tracedTransport struct {
	inner transport.Transport
	tr    *tracer
	// opOf maps an object id to the span of the download currently fetching
	// it, so wire traffic is attributed to the operation that caused it. The
	// op schedule never runs two downloads of one object at once.
	opOf []atomic.Int64

	dials      atomic.Int64
	sends      atomic.Int64
	sendNs     atomic.Int64
	recvs      atomic.Int64
	recvWaitNs atomic.Int64
	blockMsgs  atomic.Int64
}

// sliceTransport returns the transport a live slice runs on: bare TCP when
// tracing is off (and a nil decorator, whose methods are no-ops), the
// decorated one in the traced round. objects sizes the op attribution table.
func sliceTransport(tr *tracer, objects int) (transport.Transport, *tracedTransport) {
	if tr == nil {
		return transport.TCP{}, nil
	}
	tt := &tracedTransport{inner: transport.TCP{}, tr: tr, opOf: make([]atomic.Int64, objects+1)}
	return tt, tt
}

func (t *tracedTransport) setOp(obj catalog.ObjectID, spanID int) {
	if t != nil && int(obj) < len(t.opOf) {
		t.opOf[obj].Store(int64(spanID))
	}
}

func (t *tracedTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: t}, nil
}

func (t *tracedTransport) Dial(addr string) (transport.Conn, error) {
	id := t.tr.begin("transport.Dial", 0, 0)
	c, err := t.inner.Dial(addr)
	t.tr.end(id)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	return &tracedConn{Conn: c, t: t}, nil
}

type tracedListener struct {
	transport.Listener
	t *tracedTransport
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

type tracedConn struct {
	transport.Conn
	t *tracedTransport
}

// msgObject extracts the object a message is about, if it names one.
func msgObject(msg protocol.Message) (catalog.ObjectID, bool) {
	switch m := msg.(type) {
	case *protocol.Request:
		return m.Object, true
	case *protocol.Cancel:
		return m.Object, true
	case *protocol.Manifest:
		return m.Object, true
	case *protocol.Block:
		return m.Object, true
	case *protocol.BlockAck:
		return m.Object, true
	case *protocol.StripeGrant:
		return m.Object, true
	}
	return 0, false
}

func (c *tracedConn) parentOf(msg protocol.Message) int {
	if obj, ok := msgObject(msg); ok && int(obj) < len(c.t.opOf) {
		return int(c.t.opOf[obj].Load())
	}
	return 0
}

func (c *tracedConn) Send(msg protocol.Message) error {
	parent := c.parentOf(msg)
	id := c.t.tr.begin("transport.Send", parent, parent)
	start := time.Now()
	err := c.Conn.Send(msg)
	c.t.sendNs.Add(int64(time.Since(start)))
	c.t.tr.end(id)
	c.t.sends.Add(1)
	if _, ok := msg.(*protocol.Block); ok {
		c.t.blockMsgs.Add(1)
	}
	return err
}

func (c *tracedConn) Recv() (protocol.Message, error) {
	start := time.Now()
	msg, err := c.Conn.Recv()
	if err != nil {
		return msg, err
	}
	wait := time.Since(start)
	c.t.recvs.Add(1)
	c.t.recvWaitNs.Add(int64(wait))
	// Recorded after the fact: the parent is only known once the message
	// has been decoded.
	parent := c.parentOf(msg)
	c.t.tr.add("transport.Recv", wait, parent, parent)
	return msg, nil
}

// report writes the decorator's counters as per-layer values.
func (t *tracedTransport) report(l map[string]float64, ops int) {
	if t == nil {
		return
	}
	sends, recvs := float64(t.sends.Load()), float64(t.recvs.Load())
	l["transport.sends"] = sends
	l["transport.dials"] = float64(t.dials.Load())
	l["transport.block_msgs"] = float64(t.blockMsgs.Load())
	if sends > 0 {
		l["transport.send_us_mean"] = float64(t.sendNs.Load()) / 1e3 / sends
	}
	if recvs > 0 {
		l["transport.recv_wait_us_mean"] = float64(t.recvWaitNs.Load()) / 1e3 / recvs
	}
	if ops > 0 {
		l["transport.msgs_per_op"] = sends / float64(ops)
	}
}
