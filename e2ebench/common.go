package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/resultcache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
)

// nap sleeps in the kernel: the runtime's timers round sub-millisecond
// sleeps up to a millisecond, too coarse for the freshness probe and
// the open-loop schedule.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted nap only shortens a poll
}

// sleepUntil waits for t: coarse runtime sleep, then short naps.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			nap(min(d, 50*time.Microsecond))
		}
	}
}

// regVal is one registry family summed over its labels.
type regVal struct{ value, count, sum float64 }

// rtSnap is the process-wide runtime accounting.
type rtSnap struct {
	allocBytes, gcCycles float64
	cpu                  time.Duration
}

func readRuntime() rtSnap {
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSnap{
		allocBytes: float64(ms[0].Value.Uint64()),
		gcCycles:   float64(ms[1].Value.Uint64()),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// snap is every public counter the benchmark reads at a window
// boundary.
type snap struct {
	at      time.Time
	rt      rtSnap
	reg     map[string]regVal
	fs      fsSnap
	rc      resultcache.Stats
	sched   core.SchedulerStats
	decoded uint64
	brokerN uint64
	client  transport.ClientStats // summed over the stack's clients
}

func takeSnap(s *stack) snap {
	sn := snap{at: time.Now(), rt: readRuntime(), reg: map[string]regVal{}}
	s.reg.Snapshot(func(x *telemetry.Sample) {
		v := sn.reg[x.Name]
		v.value += x.Value
		v.count += float64(x.Count)
		v.sum += x.Sum
		sn.reg[x.Name] = v
	})
	sn.fs = s.fs.snap()
	sn.rc = s.agent.Results.Stats()
	sn.sched = s.agent.Manager.SchedulerStats()
	sn.decoded = s.agent.DB.ChunksDecoded()
	if s.agent.Broker != nil {
		sn.brokerN = s.agent.Broker.Published()
	}
	for _, c := range s.clients {
		st := c.Stats()
		sn.client.Published += st.Published
		sn.client.Acked += st.Acked
		sn.client.Redeliveries += st.Redeliveries
		sn.client.Reconnects += st.Reconnects
	}
	return sn
}

// delta of one registry family between two snapshots.
func regDelta(a, b snap, name string) regVal {
	x, y := a.reg[name], b.reg[name]
	return regVal{value: y.value - x.value, count: y.count - x.count, sum: y.sum - x.sum}
}

// sampler polls the heap (for heap_peak_mb) every 50ms and, when set,
// a cheap extra probe every millisecond (spool depth, scheduler queue).
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64
	extra func()
}

func startSampler(extra func()) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{}), extra: extra}
	go sm.loop()
	return sm
}

func (sm *sampler) loop() {
	defer close(sm.done)
	period := 50 * time.Millisecond
	if sm.extra != nil {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	var ms runtime.MemStats
	last := time.Time{}
	for {
		select {
		case <-sm.stop:
			return
		case now := <-t.C:
			if sm.extra != nil {
				sm.extra()
			}
			if now.Sub(last) >= 50*time.Millisecond {
				last = now
				runtime.ReadMemStats(&ms)
				sm.mu.Lock()
				sm.peak = max(sm.peak, ms.HeapInuse)
				sm.mu.Unlock()
			}
		}
	}
}

// finish stops the sampler and returns the peak HeapInuse in MB.
func (sm *sampler) finish() float64 {
	close(sm.stop)
	<-sm.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return float64(max(sm.peak, ms.HeapInuse)) / (1 << 20)
}

// probeReq asks the freshness probe to time one published reading.
type probeReq struct {
	topic sensor.Topic
	ts    int64     // the batch's newest reading
	due   time.Time // when the batch was due to be published
}

// freshRec is one freshness sample.
type freshRec struct {
	due   time.Time
	fresh time.Duration
}

// probe measures freshness: from the time a sampled batch was due until
// DB.Latest(topic) returns its newest reading. Between polls it sleeps,
// paced so that polls land a twentieth of the recent freshness median
// apart: twice as fine as the p50/10 check needs at whatever freshness
// the stack reaches, and asleep the rest of the time, so it takes
// little CPU from the stack under test. The achieved poll period and
// the probe's own CPU time are reported beside the result.
type probe struct {
	s  *stack
	tr *tracer
	ch chan probeReq // one pending request; offers beyond it are skipped

	mu        sync.Mutex
	recs      []freshRec
	lost      int // samples never visible within probeTimeout
	polls     int64
	pollNanos int64
	cpu, wall time.Duration // the probe thread's CPU time over its life
}

const (
	probeTimeout = 20 * time.Second
	probeRecent  = 64 // freshness samples behind the pacing median
	minNap       = 10 * time.Microsecond
	maxNap       = time.Millisecond
)

func newProbe(s *stack, tr *tracer) *probe {
	return &probe{s: s, tr: tr, ch: make(chan probeReq, 1)}
}

// offer hands a sample to the probe unless it is busy.
func (p *probe) offer(r probeReq) {
	select {
	case p.ch <- r:
	default:
	}
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_THREAD, &ru) // cannot fail for RUSAGE_THREAD
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *probe) run(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	// One thread for the probe's whole life, so its CPU time can be read.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), threadCPU()
	defer func() {
		p.mu.Lock()
		p.cpu, p.wall = threadCPU()-cpu0, time.Since(start)
		p.mu.Unlock()
	}()
	recent := make([]float64, 0, probeRecent)
	var next int
	pause := minNap
	var over time.Duration // how far a nap overruns its request (moving mean)
	for {
		var r probeReq
		select {
		case <-stop:
			return
		case r = <-p.ch:
		}
		first := time.Now()
		var n int64
		for {
			t := p.tr.begin()
			got, ok := p.s.agent.DB.Latest(r.topic)
			p.tr.end(spanLatest, t)
			n++
			now := time.Now()
			if ok && got.Time >= r.ts {
				fresh := now.Sub(r.due)
				p.mu.Lock()
				p.recs = append(p.recs, freshRec{due: r.due, fresh: fresh})
				if n > 1 {
					p.polls += n - 1
					p.pollNanos += int64(now.Sub(first))
				}
				p.mu.Unlock()
				if len(recent) < probeRecent {
					recent = append(recent, float64(fresh))
				} else {
					recent[next] = float64(fresh)
					next = (next + 1) % probeRecent
				}
				target := time.Duration(median(recent)/20) - over
				pause = min(max(target, minNap), maxNap)
				break
			}
			if now.Sub(first) > probeTimeout {
				p.mu.Lock()
				p.lost++
				p.mu.Unlock()
				break
			}
			t0 := time.Now()
			nap(pause)
			over += (time.Since(t0) - pause - over) / 16
		}
	}
}

// window returns the freshness samples due in [a, b) in ms.
func (p *probe) window(a, b time.Time) *samples {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &samples{}
	for _, r := range p.recs {
		if !r.due.Before(a) && r.due.Before(b) {
			out.addDur(r.fresh)
		}
	}
	return out
}

// fineEnough checks that the probe polled at least ten times per median
// freshness: a coarser probe would measure its own period.
func (p *probe) fineEnough(fresh *samples) bool {
	poll, p50 := p.pollPeriod(), fresh.quantile(0.5)
	fmt.Printf("probe: poll period %.1f us, CPU share %.4f, freshness p50 %.3f ms\n", poll, p.cpuShare(), p50)
	if fresh.n() == 0 || poll/1e3 > p50/10 {
		fmt.Println("check: the probe's poll period exceeds a tenth of freshness p50")
		return false
	}
	return true
}

// cpuShare is the probe thread's CPU time as a share of one CPU over
// the probe's life; valid once run has returned.
func (p *probe) cpuShare() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ratio(p.cpu.Seconds(), p.wall.Seconds())
}

// pollPeriod is the mean achieved time between polls, in µs.
func (p *probe) pollPeriod() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ratio(float64(p.pollNanos)/1e3, float64(p.polls))
}
