package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerDefaultThreads(t *testing.T) {
	s := NewScheduler(0)
	defer s.Close()
	if s.Threads() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default threads = %d, want GOMAXPROCS %d", s.Threads(), runtime.GOMAXPROCS(0))
	}
	if s := NewScheduler(7); s.Threads() != 7 {
		t.Fatalf("threads = %d, want 7", s.Threads())
	}
}

func TestSchedulerRunsAllTasks(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	const n = 200
	var done atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		s.Submit(func() {
			defer wg.Done()
			done.Add(1)
		})
	}
	wg.Wait()
	if done.Load() != n {
		t.Fatalf("ran %d tasks, want %d", done.Load(), n)
	}
	// A worker books a task as completed just after the task returns, so
	// the counters may trail wg.Wait by that one step.
	st := s.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.Completed != n && time.Now().Before(deadline); st = s.Stats() {
		runtime.Gosched()
	}
	if st.Completed != n || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestSchedulerBoundsConcurrency verifies that no more tasks run at once
// than the pool has workers — the property that keeps analytics overhead
// bounded on a monitored node.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	const threads = 2
	s := NewScheduler(threads)
	defer s.Close()
	var active, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		s.Submit(func() {
			defer wg.Done()
			a := active.Add(1)
			for {
				p := peak.Load()
				if a <= p || peak.CompareAndSwap(p, a) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			active.Add(-1)
		})
	}
	wg.Wait()
	if p := peak.Load(); p > threads {
		t.Fatalf("peak concurrency %d exceeds pool size %d", p, threads)
	}
}

func TestSchedulerDo(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	ran := false
	s.Do(func() { ran = true })
	// Do returns only after the task completed, so plain access is safe.
	if !ran {
		t.Fatal("Do returned before the task ran")
	}
}

func TestSchedulerCloseDrainsAndDegrades(t *testing.T) {
	s := NewScheduler(1)
	var done atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		s.Submit(func() {
			defer wg.Done()
			done.Add(1)
		})
	}
	s.Close()
	wg.Wait()
	if done.Load() != 20 {
		t.Fatalf("queued tasks lost on Close: ran %d of 20", done.Load())
	}
	// After Close, Submit degrades to synchronous execution.
	ran := false
	s.Submit(func() { ran = true })
	if !ran {
		t.Fatal("Submit after Close should run the task synchronously")
	}
	s.Close() // idempotent
}

func TestSchedulerStatsWhileBusy(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	s.Submit(func() {
		defer wg.Done()
		close(started)
		<-release
	})
	<-started
	s.Submit(func() { defer wg.Done() })
	st := s.Stats()
	if st.Active != 1 {
		t.Errorf("active = %d, want 1", st.Active)
	}
	if st.Queued != 1 {
		t.Errorf("queued = %d, want 1", st.Queued)
	}
	close(release)
	wg.Wait()
}
