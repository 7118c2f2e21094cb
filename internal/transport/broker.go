package transport

import (
	"bufio"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// Handler consumes published messages delivered to a subscription.
//
// Broker-side local handlers receive a Message whose Readings slice is
// owned by the broker and reused for the next frame: it is valid only
// for the duration of the call. A handler that hands the batch to
// another goroutine (or stores it) must copy it first. Client-side
// subscription handlers receive a private slice and may retain it.
type Handler func(Message)

// outFrame is one frame queued for a connection's writer goroutine; buf
// is pooled and returns to outBufPool after the write (or the drop).
type outFrame struct {
	typ byte
	buf *[]byte
}

// outBufPool recycles outbound frame payload copies. A frame must be
// copied to cross into the writer goroutine: the serve loop's decode
// buffer is reused for the next frame the moment route returns.
var outBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// makeOutFrame copies payload into a pooled buffer.
func makeOutFrame(typ byte, payload []byte) outFrame {
	buf := outBufPool.Get().(*[]byte)
	*buf = append((*buf)[:0], payload...)
	//lint:ignore poolescape ownership transfer by design: the frame crosses to the connection's single writer goroutine, which returns buf to outBufPool after the write or the drop
	return outFrame{typ: typ, buf: buf}
}

// brokerConn is one client connection's broker-side state. All writes
// go through a bounded outbound queue drained by a single writer
// goroutine under a per-frame write deadline, so a stalled reader can
// neither interleave frames nor wedge the broker: acknowledgements
// enqueue blocking (backpressure on that connection's own serve loop,
// never a drop), subscriber forwards enqueue non-blocking and are
// dropped with a counter when the queue is full.
type brokerConn struct {
	conn net.Conn
	bw   *bufio.Writer

	out      chan outFrame
	dead     chan struct{}
	dieOnce  sync.Once
	deadline time.Duration

	filters []string // network subscriptions; guarded by Broker.mu
}

// die marks the connection dead exactly once and closes the socket,
// releasing the writer goroutine, pending ack enqueuers and the serve
// loop wherever they block.
func (c *brokerConn) die() {
	c.dieOnce.Do(func() { close(c.dead) })
	c.conn.Close()
}

// enqueueAck queues a protocol acknowledgement (CONNACK, SUBACK,
// PINGRESP, PUBACK). It blocks while the queue is full — an ack is a
// delivery promise and must never be dropped — and returns false only
// when the connection died, which the writer's deadline guarantees
// happens in bounded time.
func (c *brokerConn) enqueueAck(typ byte, payload []byte) bool {
	f := makeOutFrame(typ, payload)
	select {
	case c.out <- f:
		return true
	case <-c.dead:
		outBufPool.Put(f.buf)
		return false
	}
}

// enqueueForward queues a publish forward without blocking: a slow
// subscriber sheds load by losing forwards, not by stalling routing.
func (c *brokerConn) enqueueForward(typ byte, payload []byte) bool {
	select {
	case <-c.dead:
		return false
	default:
	}
	f := makeOutFrame(typ, payload)
	select {
	case c.out <- f:
		return true
	default:
		outBufPool.Put(f.buf)
		return false
	}
}

// writeLoop is the connection's single writer: it drains the outbound
// queue, arming a fresh write deadline per frame and flushing whenever
// the queue momentarily empties. A write error (including a deadline
// expiry against a stalled reader) kills the connection.
func (c *brokerConn) writeLoop(m *brokerMetrics) {
	for {
		select {
		case f := <-c.out:
			_ = c.conn.SetWriteDeadline(time.Now().Add(c.deadline))
			err := writeFrame(c.bw, f.typ, *f.buf)
			if err == nil && len(c.out) == 0 {
				err = c.bw.Flush()
			}
			outBufPool.Put(f.buf)
			if err != nil {
				m.writeFails.Inc()
				c.die()
				return
			}
		case <-c.dead:
			return
		}
	}
}

// netSub is one entry of the copy-on-write subscriber snapshot: a
// connection and an immutable copy of its filters at snapshot time.
type netSub struct {
	c       *brokerConn
	filters []string
}

// BrokerOptions tunes a broker beyond its defaults.
type BrokerOptions struct {
	// WriteDeadline bounds every frame write to a client connection
	// (default 10s): a subscriber that stops reading is torn down
	// instead of wedging the writer.
	WriteDeadline time.Duration
	// OutQueue bounds each connection's outbound frame queue (default
	// 1024). Acks block on a full queue; subscriber forwards drop.
	OutQueue int
	// Metrics, when set, instruments the broker into this registry.
	Metrics *telemetry.Registry
}

// withDefaults resolves zero option fields.
func (o BrokerOptions) withDefaults() BrokerOptions {
	if o.WriteDeadline <= 0 {
		o.WriteDeadline = 10 * time.Second
	}
	if o.OutQueue <= 0 {
		o.OutQueue = 1024
	}
	return o
}

// Broker is the message broker at the heart of a Collect Agent: it
// accepts Pusher connections, routes published reading batches to network
// subscribers whose filters match, and delivers them to local handlers
// registered in-process (the Collect Agent's storage path). Versioned
// (v2) publishes are acknowledged with a PubAck after the message has
// been routed to every local handler, which is what makes a spooling
// client's at-least-once delivery land exactly-once in the store.
type Broker struct {
	ln   net.Listener
	opts BrokerOptions

	mu     sync.Mutex
	conns  map[*brokerConn]struct{}
	closed bool

	// subs and locals are copy-on-write snapshots rebuilt under mu on
	// every (rare) subscription change, so the per-message route path
	// reads them with one atomic load — no lock, no allocation.
	subs   atomic.Pointer[[]netSub]
	locals atomic.Pointer[[]localSub]

	wg sync.WaitGroup
	// published counts all messages routed, for the footprint experiment.
	published atomic.Uint64

	// metrics is never nil on a running broker; without a registry the
	// counters are unattached, so route stays unconditional.
	metrics *brokerMetrics
}

type localSub struct {
	filter string
	fn     Handler
}

// NewBroker starts a broker listening on addr (e.g. "127.0.0.1:0").
// An optional telemetry registry instruments the broker (frame/byte
// counters, connection gauge); at most one may be given.
func NewBroker(addr string, reg ...*telemetry.Registry) (*Broker, error) {
	var o BrokerOptions
	if len(reg) > 0 {
		o.Metrics = reg[0]
	}
	return NewBrokerOpts(addr, o)
}

// NewBrokerOpts starts a broker with explicit options.
func NewBrokerOpts(addr string, opts BrokerOptions) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	b := &Broker{ln: ln, opts: opts.withDefaults(), conns: make(map[*brokerConn]struct{})}
	b.metrics = newBrokerMetrics(b.opts.Metrics, b)
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// Addr returns the broker's listen address.
func (b *Broker) Addr() string { return b.ln.Addr().String() }

// Published returns the number of messages routed since start.
func (b *Broker) Published() uint64 { return b.published.Load() }

// SubscribeLocal registers an in-process handler for every message whose
// topic matches filter ('#' wildcard supported). Used by the Collect Agent
// to receive data without a network hop. See Handler for the ownership
// rules of the delivered Message.
func (b *Broker) SubscribeLocal(filter string, fn Handler) {
	b.mu.Lock()
	var locals []localSub
	if cur := b.locals.Load(); cur != nil {
		locals = append(locals, *cur...)
	}
	locals = append(locals, localSub{filter: filter, fn: fn})
	b.locals.Store(&locals)
	b.mu.Unlock()
}

// rebuildSubs regenerates the network-subscriber snapshot. Callers hold
// b.mu. Filters are copied so a later subscribe on the same connection
// cannot mutate a slice the lock-free route path is iterating.
func (b *Broker) rebuildSubs() {
	subs := make([]netSub, 0, len(b.conns))
	for c := range b.conns {
		if len(c.filters) == 0 {
			continue
		}
		subs = append(subs, netSub{c: c, filters: append([]string(nil), c.filters...)})
	}
	b.subs.Store(&subs)
}

// KillConnections abruptly closes up to n live client connections
// (all of them when n < 0) and returns how many were killed. The
// victims' serve loops observe the closed socket, deregister and tear
// down exactly as they would on a network fault — this is the chaos
// harness's connection-kill fault, not a graceful disconnect. Iteration
// order over the connection map is intentionally left to the runtime:
// chaos scenarios want arbitrary victims.
func (b *Broker) KillConnections(n int) int {
	b.mu.Lock()
	victims := make([]*brokerConn, 0, len(b.conns))
	for c := range b.conns {
		if n >= 0 && len(victims) >= n {
			break
		}
		select {
		case <-c.dead:
			continue // killed earlier, deregistration still pending
		default:
		}
		victims = append(victims, c)
	}
	b.mu.Unlock()
	// Close outside b.mu: serve-loop teardown takes the lock to
	// deregister, and holding it here would invert the shutdown order.
	for _, c := range victims {
		c.die()
	}
	return len(victims)
}

// Close stops the broker and disconnects all clients.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	conns := make([]*brokerConn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	err := b.ln.Close()
	for _, c := range conns {
		c.die()
	}
	b.wg.Wait()
	b.metrics.closeMetrics()
	return err
}

func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		bc := &brokerConn{
			conn:     conn,
			bw:       bufio.NewWriterSize(conn, 4<<10),
			out:      make(chan outFrame, b.opts.OutQueue),
			dead:     make(chan struct{}),
			deadline: b.opts.WriteDeadline,
		}
		b.metrics.connsTotal.Inc()
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			conn.Close()
			return
		}
		b.conns[bc] = struct{}{}
		b.mu.Unlock()
		b.wg.Add(2)
		go func() {
			defer b.wg.Done()
			bc.writeLoop(b.metrics)
		}()
		go b.serveConn(bc)
	}
}

func (b *Broker) serveConn(bc *brokerConn) {
	defer b.wg.Done()
	defer func() {
		bc.die()
		b.mu.Lock()
		delete(b.conns, bc)
		if len(bc.filters) > 0 {
			b.rebuildSubs()
		}
		b.mu.Unlock()
	}()
	// Per-connection scratch, reused frame to frame: the buffered
	// reader, the frame payload buffer, the decoded readings, an intern
	// table for this publisher's (few, recurring) topics and the PubAck
	// encode buffer. The steady-state publish path allocates nothing
	// outside the pooled outbound copies.
	br := bufio.NewReaderSize(bc.conn, 32<<10)
	var (
		payloadBuf []byte
		readings   []sensor.Reading
		ackBuf     []byte
	)
	topics := make(map[string]sensor.Topic, 64)
	// PubAcks are cumulative, so while more frames from a pipelining
	// publisher sit in the read buffer the ack is only deferred: one
	// PubAck for the newest routed batch confirms the whole burst. The
	// pending ack is flushed before the loop can block on the socket
	// (and before any other ack type, keeping the reply stream ordered),
	// and at latest every maxAckDefer publishes: a publisher that keeps
	// the read buffer full must still see steady ack progress, or its
	// stall detector would kill a perfectly healthy connection.
	const maxAckDefer = 64
	var (
		pendAck            bool
		pendN              int
		pendEpoch, pendSeq uint64
	)
	flushAck := func() bool {
		if !pendAck {
			return true
		}
		pendAck = false
		pendN = 0
		ackBuf = encodePubAck(ackBuf, pendEpoch, pendSeq)
		if !bc.enqueueAck(framePubAck, ackBuf) {
			return false
		}
		b.metrics.acks.Inc()
		return true
	}
	for {
		if br.Buffered() == 0 && !flushAck() {
			return
		}
		typ, payload, err := readFrameReuse(br, &payloadBuf)
		if err != nil {
			return
		}
		b.metrics.frames.Inc()
		b.metrics.bytesIn.Add(uint64(len(payload)))
		if typ != framePublishV2 && !flushAck() {
			return
		}
		ok := true
		switch typ {
		case frameConnect:
			ok = bc.enqueueAck(frameConnAck, nil)
		case framePublish, framePublishV2:
			var epoch, seq uint64
			body := payload
			if typ == framePublishV2 {
				var off int
				var derr error
				epoch, seq, off, derr = decodePublishV2Prefix(payload)
				if derr != nil {
					b.metrics.dropped.Inc()
					log.Printf("transport: broker: dropping bad publish: %v", derr)
					continue
				}
				body = payload[off:]
			}
			msg, derr := decodePublishInto(body, readings[:0], topics)
			if derr != nil {
				b.metrics.dropped.Inc()
				log.Printf("transport: broker: dropping bad publish: %v", derr)
				continue
			}
			msg.Epoch, msg.Seq = epoch, seq
			readings = msg.Readings[:0]
			b.route(msg, body)
			if typ == framePublishV2 {
				// Ack strictly after route returned: every local
				// handler (the agent's ingest path) has accepted the
				// batch, so an acked batch can no longer be lost by
				// anything short of a storage bug. The ack itself is
				// deferred (see flushAck): a later batch's ack covers
				// this one cumulatively.
				pendAck, pendEpoch, pendSeq = true, epoch, seq
				if pendN++; pendN >= maxAckDefer && !flushAck() {
					return
				}
			}
		case frameSubscribe:
			filter, derr := decodeString(payload)
			if derr != nil {
				return
			}
			b.mu.Lock()
			bc.filters = append(bc.filters, filter)
			b.rebuildSubs()
			b.mu.Unlock()
			ok = bc.enqueueAck(frameSubAck, nil)
		case framePingReq:
			ok = bc.enqueueAck(framePingResp, nil)
		case frameDisconnect:
			return
		}
		if !ok {
			return
		}
	}
}

// route delivers a message to local handlers and matching subscribers.
// The payload is the unversioned (v1) encoding — for a v2 publish the
// caller already sliced the delivery prefix off — so subscribers of any
// protocol vintage can decode the forward. The subscriber and
// local-handler snapshots are copy-on-write, so the steady-state
// routing path takes no lock; forwards copy into pooled buffers to
// cross into each subscriber's writer goroutine.
func (b *Broker) route(msg Message, payload []byte) {
	b.published.Add(1)
	b.metrics.routed.Inc()
	b.metrics.readings.Add(uint64(len(msg.Readings)))
	if locals := b.locals.Load(); locals != nil {
		for _, ls := range *locals {
			if sensor.MatchFilter(ls.filter, msg.Topic) {
				ls.fn(msg)
			}
		}
	}
	subs := b.subs.Load()
	if subs == nil {
		return
	}
	for _, s := range *subs {
		for _, f := range s.filters {
			if !sensor.MatchFilter(f, msg.Topic) {
				continue
			}
			if s.c.enqueueForward(framePublish, payload) {
				b.metrics.forwarded.Inc()
				b.metrics.bytesOut.Add(uint64(len(payload)))
			} else {
				// Slow reader: its queue is full (or it is dead).
				// Dropping the forward here is the load-shedding
				// contract; acks are never dropped.
				b.metrics.slowDrops.Inc()
			}
			break
		}
	}
}
