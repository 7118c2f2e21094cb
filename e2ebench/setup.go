package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupRepeated builds a workload environment at least min times, and
// more while the builds total under two seconds (at most 15), keeping
// the last one: setup_s is the median build time, so a slow first
// build (cold page cache, heap growth) or a noisy millisecond-scale one
// does not decide the figure. The heap is collected before each build
// and after the last one, outside the timing, so the window starts from
// a collected heap rather than the garbage of the set-ups.
func setupRepeated[T interface{ close() error }](min int, build func() (T, error)) (T, *samples, error) {
	var zero T
	times := &samples{}
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		env, err := build()
		if err != nil {
			return zero, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times.add(time.Since(t0).Seconds())
		if times.n() >= min && (times.sum() >= 2 || times.n() >= 15) {
			runtime.GC()
			return env, times, nil
		}
		if err := env.close(); err != nil {
			return zero, nil, fmt.Errorf("closing set-up %d: %w", i+1, err)
		}
	}
}
