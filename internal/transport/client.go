package transport

import (
	"errors"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("transport: client closed")

// ErrAckTimeout reports that the broker did not acknowledge within the
// configured Options.AckTimeout.
var ErrAckTimeout = errors.New("transport: ack timeout")

// ErrUnexpectedAck reports an acknowledgement frame of the wrong type —
// a protocol desync, distinct from the broker simply being slow
// (ErrAckTimeout).
var ErrUnexpectedAck = errors.New("transport: unexpected ack type")

// ErrNotConnected reports an operation that needs a live connection
// while the client is between redial attempts.
var ErrNotConnected = errors.New("transport: not connected")

// ErrSpoolNotDrained reports that Close abandoned unacknowledged
// spooled batches: the drain timeout expired and no spool directory was
// configured to persist them.
var ErrSpoolNotDrained = errors.New("transport: close: unacked spooled batches abandoned")

// Options tunes a Client. Every zero field resolves to its documented
// default, so the zero value is a working at-least-once client.
type Options struct {
	// AckTimeout bounds every wait for a broker acknowledgement:
	// CONNACK/SUBACK round trips and the head-of-line PubAck watchdog
	// that declares a silent connection dead. Default 5s.
	AckTimeout time.Duration
	// SpoolBatches bounds the in-memory spool (default 256). Publish
	// appends the batch to the spool and returns immediately; a sender
	// goroutine streams the spool to the broker as v2 PUBLISH frames,
	// redials with exponential backoff after connection loss, and
	// redelivers everything unacknowledged. Publish blocks
	// (backpressure) only once SpoolBatches batches are in flight.
	SpoolBatches int
	// SpoolDir, when set, enables on-disk overflow: batches beyond the
	// in-memory high-water mark spill to an append-only file in this
	// directory, and Close persists whatever remains unacknowledged so a
	// restarted client (same SpoolDir) replays it in order.
	SpoolDir string
	// SpoolMaxBytes caps the overflow file (default 64 MiB). A full
	// file degrades to in-memory backpressure.
	SpoolMaxBytes int64
	// RetryMin and RetryMax bound the reconnect backoff (defaults 50ms
	// and 2s); each failed dial doubles the delay, jittered, up to
	// RetryMax.
	RetryMin time.Duration
	// RetryMax is the reconnect backoff ceiling (see RetryMin).
	RetryMax time.Duration
	// DrainTimeout bounds how long Close keeps the sender alive waiting
	// for outstanding batches to be acknowledged (default 5s). On
	// expiry the remainder is persisted to SpoolDir when configured,
	// otherwise abandoned with ErrSpoolNotDrained.
	DrainTimeout time.Duration
}

// withDefaults resolves zero option fields.
func (o Options) withDefaults() Options {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.SpoolBatches <= 0 {
		o.SpoolBatches = 256
	}
	if o.SpoolMaxBytes <= 0 {
		o.SpoolMaxBytes = 64 << 20
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.RetryMax < o.RetryMin {
		o.RetryMax = o.RetryMin
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// Client is the Pusher-side MQTT-style client: it publishes reading
// batches to the broker with at-least-once delivery (see Options) and
// can subscribe to topic filters.
type Client struct {
	addr string
	opts Options

	writeMu sync.Mutex

	mu       sync.Mutex
	subs     []localSub
	closed   bool
	pingResp chan struct{}
	// subAck holds up to 4 SubAcks, so a few concurrent Subscribe
	// calls do not lose each other's acknowledgement.
	subAck chan struct{}

	// rel is the at-least-once engine that owns the live connection.
	rel *reliable
}

// Dial connects and performs the CONNECT handshake with default
// options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects with explicit options. The initial dial must
// succeed (misconfiguration fails fast); later connection loss is
// absorbed by the spool and the redial loop.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{
		addr:     addr,
		opts:     opts.withDefaults(),
		pingResp: make(chan struct{}, 1),
		subAck:   make(chan struct{}, 4),
	}
	rel, err := newReliable(c)
	if err != nil {
		return nil, err
	}
	c.rel = rel
	return c, nil
}

// dispatch routes one received frame other than a PubAck from the
// reliable engine's per-connection receive loop.
func (c *Client) dispatch(typ byte, payload []byte) {
	switch typ {
	case frameSubAck:
		select {
		case c.subAck <- struct{}{}:
		default:
		}
	case framePingResp:
		select {
		case c.pingResp <- struct{}{}:
		default:
		}
	case framePublish:
		msg, derr := DecodePublish(payload)
		if derr != nil {
			return
		}
		c.mu.Lock()
		subs := c.subs
		c.mu.Unlock()
		for _, s := range subs {
			if sensor.MatchFilter(s.filter, msg.Topic) {
				s.fn(msg)
			}
		}
	}
}

// Publish spools one batch of readings for a topic. It is safe for
// concurrent use. The readings slice is fully encoded before Publish
// returns and is never retained — callers (e.g. the Pusher's pooled
// forwarding buffers) may reuse it immediately. Publish blocks only
// when the spool is at its high-water mark; the only error is
// ErrClosed.
func (c *Client) Publish(topic sensor.Topic, readings []sensor.Reading) error {
	return c.rel.publish(topic, readings)
}

// Subscribe registers fn for all messages matching filter and waits for
// the broker's acknowledgement. Between redial attempts the
// registration still succeeds — the filter is included in the next
// reconnect handshake — but no ack is awaited.
func (c *Client) Subscribe(filter string, fn Handler) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.subs = append(c.subs, localSub{filter: filter, fn: fn})
	c.mu.Unlock()
	conn := c.rel.liveConn()
	if conn == nil {
		return nil // resubscribed by the next reconnect handshake
	}
	c.writeMu.Lock()
	err := writeFrame(conn, frameSubscribe, encodeString(filter))
	c.writeMu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-c.subAck:
		return nil
	case <-time.After(c.opts.AckTimeout):
		return ErrAckTimeout
	}
}

// Ping performs a PINGREQ/PINGRESP round trip.
func (c *Client) Ping() error {
	conn := c.rel.liveConn()
	if conn == nil {
		return ErrNotConnected
	}
	c.writeMu.Lock()
	err := writeFrame(conn, framePingReq, nil)
	c.writeMu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-c.pingResp:
		return nil
	case <-time.After(c.opts.AckTimeout):
		return ErrAckTimeout
	}
}

// Stats returns a snapshot of the client's delivery counters.
func (c *Client) Stats() ClientStats {
	return c.rel.stats()
}

// Close tears the client down. It first drains the spool (bounded by
// Options.DrainTimeout), then persists any remainder to the disk spool
// when one is configured — the error reports batches that could be
// neither delivered nor persisted.
func (c *Client) Close() error {
	return c.rel.close()
}
