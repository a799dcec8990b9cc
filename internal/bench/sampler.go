package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Wall is the host-side cost of one sweep point. It is the only part of
// a point that is not deterministic, so it sits under one "wall" key
// that the sweep golden strips whole. These are single readings for a
// developer's eye; benchmark/ is what measures the simulator's speed.
type Wall struct {
	NsPerOp        float64 `json:"ns_per_op"`
	PeakGoroutines int     `json:"peak_goroutines"` // sampled during the point
	PeakRSSBytes   int64   `json:"peak_rss_bytes"`  // process high-water mark after the point
}

// timePoint runs one sweep point of ops operations under a goroutine
// sampler and returns its host cost.
func timePoint(ops int, run func() error) (Wall, error) {
	sampler := newGoroutineSampler()
	start := time.Now()
	err := run()
	elapsed := time.Since(start)
	sampler.stop()
	if err != nil {
		return Wall{}, err
	}
	return Wall{
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(ops),
		PeakGoroutines: sampler.peak(),
		PeakRSSBytes:   peakRSSBytes(),
	}, nil
}

// goroutineSampler polls the process goroutine count in the background
// and keeps the high-water mark — how many parked rank workers a
// workload really held.
type goroutineSampler struct {
	max  atomic.Int64
	quit chan struct{}
	wg   sync.WaitGroup
}

func newGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > s.max.Load() {
					s.max.Store(n)
				}
			}
		}
	}()
	return s
}

// stop retires the sampling goroutine.
func (s *goroutineSampler) stop() {
	close(s.quit)
	s.wg.Wait()
}

func (s *goroutineSampler) peak() int { return int(s.max.Load()) }
