package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// The write-ahead log is shared by every series: one record per ingest
// batch, framed as
//
//	u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//
// with the payload holding the topic and a delta-varint-compressed run of
// readings. Persistence uses group commit: each writer encodes its record
// outside any lock, stages it into the current commit cohort, and one
// writer — the cohort's leader — flushes every staged record with a
// single Write (and, with syncEach, a single Sync) before waking the
// whole cohort. Append therefore keeps its durability meaning (a
// returned Append survives a process kill; with syncEach an OS crash
// too) while the write/fsync cost is amortized across every concurrent
// batch. Records are written whole, so replay stops at the first torn or
// corrupt record — by construction that can only be the interrupted
// tail.

const walHeaderSize = 8

// walFile names one on-disk WAL file.
type walFile struct {
	seq  uint64
	path string
}

// listWAL returns the directory's WAL files sorted by sequence number.
func listWAL(fs FS, dir string) ([]walFile, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []walFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		files = append(files, walFile{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	return files, nil
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.wal", seq))
}

// walGroup is one commit cohort: the concatenated records of every
// writer that staged while the previous cohort was being persisted.
// done is closed once the cohort's single write (+ sync) finished; err
// is its shared outcome.
type walGroup struct {
	buf  []byte
	n    int // records staged
	done chan struct{}
	err  error
}

// walRecPool recycles the per-writer encode scratch so staging a record
// allocates nothing in steady state.
var walRecPool = sync.Pool{New: func() any { return new([]byte) }}

// wal is the active write-ahead log file.
type wal struct {
	fs          FS
	dir         string
	syncEach    bool
	groupWindow time.Duration

	// m is the owning DB's telemetry bundle, set by Open before any
	// Append can run; nil only when a wal is constructed bare in tests.
	m *dbMetrics

	mu         sync.Mutex
	drained    *sync.Cond // signalled when committing falls back to false
	staging    *walGroup  // cohort accepting writers, nil when empty
	committing bool       // a leader is persisting a cohort outside mu
	err        error      // sticky commit failure; cleared by rotate
	f          File
	seq        uint64
	size       int64
}

// newWAL starts a fresh WAL file with the given sequence number.
func newWAL(fs FS, dir string, seq uint64, syncEach bool) (*wal, error) {
	f, err := fs.OpenFile(walPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{fs: fs, dir: dir, syncEach: syncEach, f: f, seq: seq}
	w.drained = sync.NewCond(&w.mu)
	return w, nil
}

// Append durably logs one topic's reading batch through the group
// committer: the record is encoded outside the lock, staged into the
// current cohort, and Append returns once a leader has persisted the
// cohort with one write (+ one sync when syncEach is set).
func (w *wal) Append(topic sensor.Topic, rs []sensor.Reading) error {
	if len(rs) == 0 {
		return nil
	}
	rec := walRecPool.Get().(*[]byte)
	*rec = appendWALRecord((*rec)[:0], topic, rs)

	w.mu.Lock()
	if w.err != nil {
		// A previous cohort failed: the file may end in a torn record, and
		// anything written after it would be silently lost by replay. Stay
		// failed until rotate produces a fresh file.
		err := w.err
		w.mu.Unlock()
		walRecPool.Put(rec)
		return err
	}
	if !w.syncEach && w.groupWindow == 0 && !w.committing && w.staging == nil {
		// No fsync to amortize: the bare write is cheaper than cohort
		// coordination, so commit inline under the lock (the encode
		// already happened outside it). Writers arriving mid-write
		// queue on the mutex exactly as cohort followers would.
		n, err := w.f.Write(*rec)
		w.size += int64(n)
		if err != nil {
			err = fmt.Errorf("tsdb: wal append: %w", err)
			w.err = err
		}
		w.mu.Unlock()
		walRecPool.Put(rec)
		if m := w.m; m != nil && err == nil {
			m.walAppends.Inc()
			m.walCommits.Inc()
			m.walBytes.Add(uint64(n))
			m.walCohort.Observe(1)
		}
		return err
	}
	g := w.staging
	if g == nil {
		g = &walGroup{done: make(chan struct{})}
		w.staging = g
	}
	g.buf = append(g.buf, *rec...)
	g.n++
	walRecPool.Put(rec)
	if w.committing {
		// A leader is persisting the previous cohort; it will take this
		// one next. Park until our cohort is durable.
		w.mu.Unlock()
		<-g.done
		return g.err
	}
	// No commit in flight: this writer leads. Optionally linger so more
	// concurrent writers join the cohort before it is persisted.
	w.committing = true
	if w.groupWindow > 0 {
		w.mu.Unlock()
		time.Sleep(w.groupWindow)
		w.mu.Lock()
	}
	for w.staging != nil && w.err == nil {
		if w.syncEach && w.groupWindow == 0 {
			// An fsync dwarfs everything else on this path, so make each
			// one count: yield until the cohort stops growing — writers
			// woken by the previous commit (runnable, about to re-stage)
			// join this cohort instead of forcing a near-empty fsync of
			// their own. A lone writer exits after two yields (~ns), so
			// the uncontended append pays no measurable latency.
			for prev, stable, spins := w.staging.n, 0, 0; stable < 2 && spins < 256; spins++ {
				w.mu.Unlock()
				runtime.Gosched()
				w.mu.Lock()
				if n := w.staging.n; n == prev {
					stable++
				} else {
					prev, stable = n, 0
				}
			}
		}
		cur := w.staging
		w.staging = nil
		w.mu.Unlock()
		commitStart := telemetry.Clock()
		n, err := w.f.Write(cur.buf)
		if err == nil && w.syncEach {
			err = w.f.Sync()
		}
		if err != nil {
			err = fmt.Errorf("tsdb: wal append: %w", err)
		}
		if m := w.m; m != nil && err == nil {
			m.walCommitS.ObserveSince(commitStart)
			m.walCommits.Inc()
			m.walAppends.Add(uint64(cur.n))
			m.walBytes.Add(uint64(n))
			m.walCohort.Observe(float64(cur.n))
		}
		w.mu.Lock()
		w.size += int64(n)
		if err != nil && w.err == nil {
			w.err = err
		}
		cur.err = err
		close(cur.done)
	}
	// A sticky error fails any cohort staged after the failing one
	// without touching the file.
	if g2 := w.staging; g2 != nil {
		w.staging = nil
		g2.err = w.err
		close(g2.done)
	}
	w.committing = false
	w.drained.Broadcast()
	w.mu.Unlock()
	return g.err
}

// waitDrainedLocked blocks until no cohort is staged or being committed.
// Callers hold w.mu.
func (w *wal) waitDrainedLocked() {
	for w.committing {
		w.drained.Wait()
	}
}

// rotate starts the next WAL file and retires the active one, returning
// the retired sequence number. It waits out any in-flight group commit,
// and is fail-safe: the next file is opened and the old one synced
// before anything is switched, so on error the old file stays active
// and appends keep working. A successful rotate also clears the sticky
// commit error — the fresh file cannot end in a torn record.
func (w *wal) rotate() (retired uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitDrainedLocked()
	next := walPath(w.dir, w.seq+1)
	f, err := w.fs.OpenFile(next, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		f.Close()
		w.fs.Remove(next)
		return 0, err
	}
	w.f.Close() // contents are synced; a close error loses nothing
	retired = w.seq
	w.seq++
	w.f = f
	w.size = 0
	w.err = nil
	return retired, nil
}

// Close drains any in-flight group commit, then syncs and closes the
// active file.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitDrainedLocked()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// abandon closes the file handle without syncing, simulating process
// death for crash drills. In-flight commits are waited out first so the
// close cannot race a leader's Write.
func (w *wal) abandon() {
	w.mu.Lock()
	w.waitDrainedLocked()
	w.f.Close()
	w.mu.Unlock()
}

// appendWALRecord frames one (topic, readings) batch into dst.
func appendWALRecord(dst []byte, topic sensor.Topic, rs []sensor.Reading) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = binary.AppendUvarint(dst, uint64(len(topic)))
	dst = append(dst, topic...)
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	prev := int64(0)
	for _, r := range rs {
		dst = binary.AppendVarint(dst, r.Time-prev)
		prev = r.Time
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], math.Float64bits(r.Value))
		dst = append(dst, v[:]...)
	}
	payload := dst[start+walHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// replayWAL streams every intact record of one WAL file into fn. A torn
// or corrupt tail record ends the replay silently: it is the expected
// shape of a crash interrupting Append, and everything before it is
// protected by its own CRC.
func replayWAL(fs FS, path string, fn func(topic sensor.Topic, rs []sensor.Reading)) error {
	data, err := fs.ReadFile(path)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		if len(data) < walHeaderSize {
			return nil // torn header
		}
		plen := binary.LittleEndian.Uint32(data)
		crc := binary.LittleEndian.Uint32(data[4:])
		rest := data[walHeaderSize:]
		if uint64(plen) > uint64(len(rest)) {
			return nil // torn payload
		}
		payload := rest[:plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return nil // corrupt tail
		}
		topic, rs, err := decodeWALPayload(payload)
		if err != nil {
			return nil // structurally invalid tail
		}
		fn(topic, rs)
		data = rest[plen:]
	}
	return nil
}

func decodeWALPayload(p []byte) (sensor.Topic, []sensor.Reading, error) {
	tlen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < tlen {
		return "", nil, io.ErrUnexpectedEOF
	}
	topic := sensor.Topic(p[n : n+int(tlen)])
	p = p[n+int(tlen):]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return "", nil, io.ErrUnexpectedEOF
	}
	p = p[n:]
	// Every reading needs at least 9 payload bytes (1-byte varint delta +
	// 8-byte value); a count beyond that bound is a corrupt record, not a
	// preallocation request.
	if count > uint64(len(p))/9 {
		return "", nil, io.ErrUnexpectedEOF
	}
	rs := make([]sensor.Reading, 0, count)
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		dt, n := binary.Varint(p)
		if n <= 0 || len(p) < n+8 {
			return "", nil, io.ErrUnexpectedEOF
		}
		prev += dt
		v := binary.LittleEndian.Uint64(p[n:])
		rs = append(rs, sensor.Reading{Time: prev, Value: math.Float64frombits(v)})
		p = p[n+8:]
	}
	return topic, rs, nil
}
