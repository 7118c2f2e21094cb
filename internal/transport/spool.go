package transport

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// ClientStats is a snapshot of a client's delivery counters,
// exposed for telemetry (the pusher republishes them as gauges).
type ClientStats struct {
	// SpoolDepth is the number of batches in the in-memory spool
	// (unsent plus sent-but-unacknowledged).
	SpoolDepth int
	// SpoolDisk is the number of overflow batches on disk not yet
	// loaded into memory.
	SpoolDisk int
	// SpoolDiskBytes is the overflow file's current size.
	SpoolDiskBytes int64
	// Published counts batches accepted by Publish.
	Published uint64
	// Acked counts batches the broker acknowledged.
	Acked uint64
	// Reconnects counts successful dials after the initial one.
	Reconnects uint64
	// Redeliveries counts batches re-sent after a connection died with
	// them unacknowledged.
	Redeliveries uint64
}

// relBatch is one spooled publish: the encoded v2 payload plus the
// delivery identity it carries. fromDisk marks batches loaded from the
// overflow file (already persisted — Close must not write them again).
type relBatch struct {
	epoch, seq uint64
	payload    []byte
	fromDisk   bool
	sentAt     time.Time
}

// reliable is the at-least-once engine behind every Client: a
// bounded in-memory batch queue with optional disk overflow, one sender
// goroutine that owns dialling/redialling, and one receive loop per
// live connection feeding acknowledgements back.
//
// Queue discipline: queue[:sendIdx] have been written to the current
// connection and await acks; queue[sendIdx:] are unsent. PubAcks are
// cumulative — TCP delivers frames in order, so an ack for (epoch, seq)
// proves the broker routed every earlier batch sent on the same
// connection — and pop from the head. When a connection dies sendIdx
// rewinds to zero: everything unacknowledged is redelivered.
type reliable struct {
	c *Client

	epoch uint64

	mu      sync.Mutex
	space   sync.Cond // signalled when spool space frees or state changes
	queue   []*relBatch
	sendIdx int
	nextSeq uint64
	conn    net.Conn
	gen     uint64 // connection generation, guards stale teardowns
	closed  bool
	disk    *diskSpool // nil without SpoolDir

	// lastProgress is the last moment this connection demonstrably moved
	// acknowledgements forward: set at registration and on every ack that
	// pops batches. The stall detector keys on it rather than on the
	// head batch's send time — under sustained pipelining the head is
	// re-stamped only on redelivery, so send age would condemn a healthy
	// but merely slow connection and trigger a redelivery storm.
	lastProgress time.Time

	published    uint64
	acked        uint64
	reconnects   uint64
	redeliveries uint64

	kickCh chan struct{} // wakes the sender (cap 1)
	stopCh chan struct{} // closed when Close stops draining
	wg     sync.WaitGroup

	// Vectored-send scratch, owned by the sender goroutine: frame
	// headers live in hdrs, iov alternates header/payload slices so a
	// burst of spooled batches leaves in one writev.
	iov  net.Buffers
	hdrs []byte
}

// newEpoch draws a random nonzero client-epoch. Uniqueness across all
// client incarnations that ever reach one agent is what keeps the
// dedup watermarks from crossing streams; 64 random bits make a
// collision negligible where a timestamp (many pushers starting the
// same nanosecond) would not.
func newEpoch() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// Crypto randomness is best-effort here; fall back to time.
			return uint64(time.Now().UnixNano()) | 1
		}
		if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
}

// newReliable builds the engine, replays any existing disk spool, makes
// the initial connection (failing fast on misconfiguration) and starts
// the sender.
func newReliable(c *Client) (*reliable, error) {
	r := &reliable{
		c:      c,
		epoch:  newEpoch(),
		kickCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	r.space.L = &r.mu
	if c.opts.SpoolDir != "" {
		d, err := openDiskSpool(filepath.Join(c.opts.SpoolDir, "pusher.spool"), c.opts.SpoolMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("transport: opening disk spool: %w", err)
		}
		r.disk = d
	}
	conn, err := r.dialOnce()
	if err != nil {
		if r.disk != nil {
			r.disk.close()
		}
		return nil, err
	}
	r.conn = conn
	r.gen = 1
	r.lastProgress = time.Now()
	r.wg.Add(2)
	go r.recvLoop(conn, 1)
	go r.sendLoop()
	return r, nil
}

// liveConn returns the current connection, nil between redials.
func (r *reliable) liveConn() net.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conn
}

func (r *reliable) stats() ClientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ClientStats{
		SpoolDepth:   len(r.queue),
		Published:    r.published,
		Acked:        r.acked,
		Reconnects:   r.reconnects,
		Redeliveries: r.redeliveries,
	}
	if r.disk != nil {
		st.SpoolDisk = r.disk.pending
		st.SpoolDiskBytes = r.disk.size
	}
	return st
}

// publish spools one batch. It blocks only when both the disk overflow
// (if any) and the in-memory spool are at capacity — backpressure, not
// loss.
func (r *reliable) publish(topic sensor.Topic, readings []sensor.Reading) error {
	r.mu.Lock()
	// Order is sacred: the agent's dedup watermark assumes per-topic
	// sequence numbers arrive monotonically, so sequences are assigned
	// at enqueue time under a continuously-held lock (never across a
	// cond wait — a concurrent publisher could slip a later sequence in
	// front), and a batch may only enter the memory queue behind every
	// disk-resident batch. While the overflow file holds anything, all
	// new batches go to its tail. Both destination checks live in ONE
	// loop re-evaluated after every wait: a publisher that blocked on a
	// full disk must return to the disk path whenever disk.pending rises
	// again while it slept (a concurrent publisher's append succeeded),
	// or its memory enqueue would jump ahead of a lower-sequence
	// disk-resident batch — which the dedup watermark would then reject
	// on replay even though the broker acked it: acked data loss.
	for {
		if r.closed {
			r.mu.Unlock()
			return ErrClosed
		}
		if r.disk != nil && (r.disk.pending > 0 || len(r.queue) >= r.c.opts.SpoolBatches) {
			r.nextSeq++
			payload := EncodePublishV2(Message{
				Topic: topic, Readings: readings, Epoch: r.epoch, Seq: r.nextSeq,
			})
			if err := r.disk.append(payload); err == nil {
				r.published++
				r.mu.Unlock()
				r.kick()
				return nil
			}
			// Disk full (or failing): the sequence just burnt is
			// discarded (gaps are harmless to a high-water mark) and the
			// publisher waits for state to change before re-deciding
			// where this batch may go.
			r.space.Wait()
			continue
		}
		if len(r.queue) >= r.c.opts.SpoolBatches {
			r.space.Wait()
			continue
		}
		break
	}
	r.nextSeq++
	payload := EncodePublishV2(Message{
		Topic: topic, Readings: readings, Epoch: r.epoch, Seq: r.nextSeq,
	})
	r.queue = append(r.queue, &relBatch{epoch: r.epoch, seq: r.nextSeq, payload: payload})
	r.published++
	r.mu.Unlock()
	r.kick()
	return nil
}

// kick wakes the sender without blocking.
func (r *reliable) kick() {
	select {
	case r.kickCh <- struct{}{}:
	default:
	}
}

// sendLoop owns the connection lifecycle: dial (with backoff + jitter),
// stream unsent batches, watch the head-of-line ack deadline, redial on
// failure. It exits when the client is closed and the spool is drained,
// or when Close abandons the drain (stopCh).
func (r *reliable) sendLoop() {
	defer r.wg.Done()
	backoff := r.c.opts.RetryMin
	for {
		r.mu.Lock()
		if r.closed && len(r.queue) == 0 && (r.disk == nil || r.disk.pending == 0) {
			r.mu.Unlock()
			return
		}
		conn, gen := r.conn, r.gen
		if conn == nil {
			r.mu.Unlock()
			select {
			case <-r.stopCh:
				return
			default:
			}
			c2, err := r.dialOnce()
			if err != nil {
				select {
				case <-time.After(jitter(backoff)):
				case <-r.stopCh:
					return
				}
				if backoff *= 2; backoff > r.c.opts.RetryMax {
					backoff = r.c.opts.RetryMax
				}
				continue
			}
			backoff = r.c.opts.RetryMin
			r.mu.Lock()
			// Registration races with close(): stopCh is closed strictly
			// before close() tears down r.conn, so if the dial completed
			// after that teardown this check (under the same lock) sees it
			// and abandons c2 — registering would orphan a receiver on a
			// connection nobody will ever close, wedging close()'s Wait.
			select {
			case <-r.stopCh:
				r.mu.Unlock()
				c2.Close()
				return
			default:
			}
			r.conn = c2
			r.gen++
			r.sendIdx = 0 // redeliver everything unacknowledged
			r.lastProgress = time.Now()
			r.reconnects++
			gen = r.gen
			r.mu.Unlock()
			r.wg.Add(1)
			go r.recvLoop(c2, gen)
			continue
		}
		r.refillLocked()
		if r.sendIdx < len(r.queue) {
			// Gather every unsent batch (capped to keep each writev's
			// iovec list bounded) into one vectored write: under
			// sustained load many frames leave per syscall.
			const maxBurst = 256
			now := time.Now()
			r.iov = r.iov[:0]
			r.hdrs = r.hdrs[:0]
			n := 0
			for r.sendIdx < len(r.queue) && n < maxBurst {
				b := r.queue[r.sendIdx]
				if !b.sentAt.IsZero() {
					r.redeliveries++
				}
				b.sentAt = now
				r.sendIdx++
				r.hdrs = append(r.hdrs, framePublishV2, 0, 0, 0, 0)
				binary.BigEndian.PutUint32(r.hdrs[len(r.hdrs)-4:], uint32(len(b.payload)))
				r.iov = append(r.iov, nil, b.payload)
				n++
			}
			// Headers slice into hdrs only after it stops growing: append
			// may reallocate the arena mid-gather.
			for i := 0; i < n; i++ {
				r.iov[2*i] = r.hdrs[5*i : 5*i+5]
			}
			r.mu.Unlock()
			// The burst shares the connection with Subscribe/Ping frames
			// written under c.writeMu; hold it across the vectored write
			// (which may span several writev syscalls) so a concurrent
			// control frame can never interleave bytes mid-frame and
			// desync the broker's stream.
			r.c.writeMu.Lock()
			_, err := r.iov.WriteTo(conn)
			r.c.writeMu.Unlock()
			if err != nil {
				r.connDead(gen)
			}
			continue
		}
		// Idle: wait for new work, and while acks are outstanding watch
		// for ack progress — a connection that swallows frames without
		// ever acking is as dead as a closed one, but one that keeps
		// popping batches (however slowly) is healthy and must not be
		// torn down: every teardown rewinds sendIdx and redelivers the
		// whole spool, so a false positive feeds itself.
		wait := r.c.opts.AckTimeout
		if r.sendIdx > 0 {
			if d := time.Until(r.lastProgress.Add(r.c.opts.AckTimeout)); d < wait {
				wait = d
			}
		}
		r.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		select {
		case <-r.kickCh:
		case <-time.After(wait):
			r.mu.Lock()
			stuck := r.gen == gen && r.conn != nil && r.sendIdx > 0 &&
				time.Since(r.lastProgress) >= r.c.opts.AckTimeout
			r.mu.Unlock()
			if stuck {
				conn.Close()
				r.connDead(gen)
			}
		case <-r.stopCh:
			return
		}
	}
}

// refillLocked loads overflow batches into the tail of the memory
// queue. Callers hold r.mu.
func (r *reliable) refillLocked() {
	if r.disk == nil || r.disk.pending == 0 || len(r.queue) >= r.c.opts.SpoolBatches {
		return
	}
	loaded, err := r.disk.load(r.c.opts.SpoolBatches - len(r.queue))
	if err != nil {
		// A torn or unreadable overflow tail: drop what cannot be
		// parsed rather than wedging the sender. The loss is bounded to
		// batches that were never acknowledged anyway.
		r.disk.abandonPending()
		r.space.Broadcast()
		return
	}
	r.queue = append(r.queue, loaded...)
}

// connDead retires generation gen's connection: everything sent on it
// but unacknowledged rewinds to unsent for redelivery on the next dial.
func (r *reliable) connDead(gen uint64) {
	r.mu.Lock()
	if r.gen != gen || r.conn == nil {
		r.mu.Unlock()
		return
	}
	conn := r.conn
	r.conn = nil
	r.sendIdx = 0
	r.mu.Unlock()
	conn.Close()
	r.kick()
}

// ack applies one cumulative PubAck: every batch at or before
// (epoch, seq) in send order is confirmed routed and leaves the spool.
func (r *reliable) ack(epoch, seq uint64) {
	r.mu.Lock()
	n := 0
	for n < r.sendIdx {
		b := r.queue[n]
		if b.epoch == epoch && b.seq > seq {
			break
		}
		n++
		if b.epoch == epoch && b.seq == seq {
			break
		}
	}
	if n > 0 {
		r.acked += uint64(n)
		r.lastProgress = time.Now()
		copy(r.queue, r.queue[n:])
		for i := len(r.queue) - n; i < len(r.queue); i++ {
			r.queue[i] = nil
		}
		r.queue = r.queue[:len(r.queue)-n]
		r.sendIdx -= n
		if r.disk != nil && len(r.queue) == 0 && r.disk.pending == 0 {
			r.disk.reset()
		}
		r.space.Broadcast()
	}
	r.mu.Unlock()
	if n > 0 {
		// The sender may be idle with the queue it saw fully sent; freed
		// space lets it refill from the disk overflow.
		r.kick()
	}
}

// recvLoop reads one connection until it dies, feeding acks to the
// spool and everything else to the shared client dispatch.
func (r *reliable) recvLoop(conn net.Conn, gen uint64) {
	defer r.wg.Done()
	// This loop is the connection's only reader, so buffering is safe;
	// it batches the small PubAck frames into one read syscall each
	// time the broker's coalesced flush lands.
	br := bufio.NewReaderSize(conn, 32<<10)
	var buf []byte
	for {
		typ, payload, err := readFrameReuse(br, &buf)
		if err != nil {
			r.connDead(gen)
			return
		}
		if typ == framePubAck {
			if e, s, derr := decodePubAck(payload); derr == nil {
				r.ack(e, s)
			}
			continue
		}
		r.c.dispatch(typ, payload)
	}
}

// dialOnce makes one connection attempt including the CONNECT handshake
// and resubscription of every registered filter.
func (r *reliable) dialOnce() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", r.c.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := r.handshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake runs CONNECT/CONNACK and re-sends the client's subscription
// filters synchronously, all under one deadline, before the connection
// is handed to the concurrent send/receive loops.
func (r *reliable) handshake(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(r.c.opts.AckTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := writeFrame(conn, frameConnect, nil); err != nil {
		return err
	}
	typ, _, err := readFrame(conn)
	if err != nil {
		return ackErr(err)
	}
	if typ != frameConnAck {
		return ErrUnexpectedAck
	}
	r.c.mu.Lock()
	filters := make([]string, len(r.c.subs))
	for i, s := range r.c.subs {
		filters[i] = s.filter
	}
	r.c.mu.Unlock()
	for _, f := range filters {
		if err := writeFrame(conn, frameSubscribe, encodeString(f)); err != nil {
			return err
		}
		typ, _, err := readFrame(conn)
		if err != nil {
			return ackErr(err)
		}
		if typ != frameSubAck {
			return ErrUnexpectedAck
		}
	}
	return nil
}

// ackErr reports a handshake read that ran into the AckTimeout deadline
// as ErrAckTimeout; other read errors pass through.
func ackErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrAckTimeout
	}
	return err
}

// close drains the spool (bounded by DrainTimeout), persists any
// remainder to the disk spool, then stops the sender and receiver.
func (r *reliable) close() error {
	r.c.mu.Lock()
	if r.c.closed {
		r.c.mu.Unlock()
		return nil
	}
	r.c.closed = true
	r.c.mu.Unlock()

	r.mu.Lock()
	r.closed = true
	r.space.Broadcast() // publishers blocked on backpressure get ErrClosed
	r.mu.Unlock()
	r.kick()

	var err error
	deadline := time.Now().Add(r.c.opts.DrainTimeout)
	for {
		r.mu.Lock()
		drained := len(r.queue) == 0 && (r.disk == nil || r.disk.pending == 0)
		r.mu.Unlock()
		if drained {
			break
		}
		if time.Now().After(deadline) {
			err = r.persistRemainder()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(r.stopCh)
	r.mu.Lock()
	conn := r.conn
	r.conn = nil
	r.mu.Unlock()
	if conn != nil {
		// TryLock: the sender may be wedged mid-write on this very
		// connection holding c.writeMu, and conn.Close() below is what
		// unblocks it — so the courtesy DISCONNECT is skipped rather
		// than deadlocking Close behind it.
		if r.c.writeMu.TryLock() {
			_ = writeFrame(conn, frameDisconnect, nil)
			r.c.writeMu.Unlock()
		}
		conn.Close()
	}
	r.wg.Wait()
	if r.disk != nil {
		if derr := r.disk.close(); err == nil {
			err = derr
		}
	}
	return err
}

// persistRemainder rewrites the disk spool as exactly the
// unacknowledged backlog in publish order: the in-memory queue first
// (its older, memory-born batches precede any disk-loaded ones), then
// the overflow records never loaded — so a restart replays everything
// in the original sequence order the dedup watermark depends on.
// Without a disk spool the remainder is abandoned and reported.
func (r *reliable) persistRemainder() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.disk == nil {
		if n := len(r.queue); n > 0 {
			return fmt.Errorf("%w: %d batches", ErrSpoolNotDrained, n)
		}
		return nil
	}
	payloads := make([][]byte, len(r.queue))
	for i, b := range r.queue {
		payloads[i] = b.payload
	}
	err := r.disk.rewrite(payloads)
	r.queue = nil
	r.sendIdx = 0
	if err != nil {
		return fmt.Errorf("transport: persisting spool remainder: %w", err)
	}
	return nil
}

// jitter spreads a backoff delay over [d/2, d) so a fleet of clients
// disconnected by the same fault does not redial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// spoolMagic versions the overflow-file record framing.
const spoolMagic = uint32(0x53504c31) // "SPL1"

// maxSpoolRecord bounds a single record's payload during scan: spooled
// payloads are v2 PUBLISH frames, so anything past the wire frame limit
// (plus the delivery-identity prefix, generously) is corruption, not a
// large batch. The configured SpoolMaxBytes cap must NOT bound this
// check — Close's persistRemainder appends via appendUnbounded, which
// deliberately ignores the cap, and those records (and everything after
// them) must survive the next open's scan.
const maxSpoolRecord = maxFrameSize + 2*binary.MaxVarintLen64

// diskSpool is the append-only overflow file: CRC-framed v2 publish
// payloads, appended at the tail, loaded in order from a read offset,
// truncated to empty once every record has been loaded and
// acknowledged. On open, existing records (a previous incarnation's
// unacknowledged remainder) are validated and queued for replay; a torn
// tail is cut off, mirroring the tsdb WAL's recovery contract.
type diskSpool struct {
	path    string
	f       *os.File
	pending int   // records on disk not yet loaded into memory
	readOff int64 // offset of the next record to load
	size    int64 // bytes of valid records
	max     int64
}

// openDiskSpool opens (or creates) the overflow file and scans it for
// replayable records.
func openDiskSpool(path string, max int64) (*diskSpool, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	d := &diskSpool{path: path, f: f, max: max}
	if err := d.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// scan validates the file record by record, counting replayable entries
// and truncating any torn tail.
func (d *diskSpool) scan() error {
	br := bufio.NewReaderSize(io.NewSectionReader(d.f, 0, 1<<62), 64<<10)
	var (
		off  int64
		hdr  [12]byte
		body []byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != spoolMagic {
			break
		}
		n := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(n) > maxSpoolRecord {
			break
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[8:12]) {
			break
		}
		off += int64(len(hdr)) + int64(n)
		d.pending++
	}
	d.size = off
	d.readOff = 0
	return d.f.Truncate(off)
}

// append writes one record, honouring the size cap.
func (d *diskSpool) append(payload []byte) error {
	if d.size+int64(len(payload))+12 > d.max {
		return fmt.Errorf("transport: disk spool full (%d bytes)", d.size)
	}
	return d.appendUnbounded(payload)
}

// appendUnbounded writes one record regardless of the cap; Close uses
// it so persisting the final remainder cannot fail on the size limit.
func (d *diskSpool) appendUnbounded(payload []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], spoolMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	if _, err := d.f.WriteAt(hdr[:], d.size); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(payload, d.size+12); err != nil {
		return err
	}
	d.size += 12 + int64(len(payload))
	d.pending++
	return nil
}

// load reads up to n records from the read offset into relBatches.
func (d *diskSpool) load(n int) ([]*relBatch, error) {
	var out []*relBatch
	var hdr [12]byte
	for len(out) < n && d.pending > 0 {
		if _, err := d.f.ReadAt(hdr[:], d.readOff); err != nil {
			return out, err
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != spoolMagic {
			return out, fmt.Errorf("transport: disk spool: bad record magic")
		}
		sz := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, sz)
		if _, err := d.f.ReadAt(payload, d.readOff+12); err != nil {
			return out, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
			return out, fmt.Errorf("transport: disk spool: record checksum mismatch")
		}
		epoch, seq, _, err := decodePublishV2Prefix(payload)
		if err != nil {
			return out, err
		}
		d.readOff += 12 + int64(sz)
		d.pending--
		out = append(out, &relBatch{epoch: epoch, seq: seq, payload: payload, fromDisk: true})
	}
	return out, nil
}

// rewrite replaces the file's contents with the given payloads (in
// order) followed by the not-yet-loaded tail records, which stay
// newest: the queue being persisted always predates them.
func (d *diskSpool) rewrite(payloads [][]byte) error {
	tailN := d.pending
	tail := make([]byte, d.size-d.readOff)
	if len(tail) > 0 {
		if _, err := d.f.ReadAt(tail, d.readOff); err != nil {
			return err
		}
	}
	if err := d.f.Truncate(0); err != nil {
		return err
	}
	d.size, d.readOff, d.pending = 0, 0, 0
	var err error
	for _, p := range payloads {
		if aerr := d.appendUnbounded(p); aerr != nil && err == nil {
			err = aerr
		}
	}
	if len(tail) > 0 {
		if _, werr := d.f.WriteAt(tail, d.size); werr != nil {
			if err == nil {
				err = werr
			}
		} else {
			d.size += int64(len(tail))
			d.pending += tailN
		}
	}
	return err
}

// abandonPending gives up on unloadable records (corrupt mid-file):
// the read offset jumps to the tail so new appends still work.
func (d *diskSpool) abandonPending() {
	d.pending = 0
	d.readOff = d.size
}

// reset truncates a fully-drained file so it does not grow without
// bound across overflow episodes.
func (d *diskSpool) reset() {
	if d.size == 0 {
		return
	}
	if err := d.f.Truncate(0); err == nil {
		d.size = 0
		d.readOff = 0
	}
}

// close syncs and closes the file, leaving persisted records for the
// next incarnation.
func (d *diskSpool) close() error {
	_ = d.f.Sync()
	return d.f.Close()
}
