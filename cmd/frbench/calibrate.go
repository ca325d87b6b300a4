package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts
// by tens of percent over minutes, far more than the changes the
// benchmark must resolve. So every window measures the machine between
// its op ranges, while the system under test is idle, with a fixed
// kernel that shares no code with it, and scales the range's timings to
// a machine of reference speed. The raw values stay in each report.

// refRounds is the kernel's rounds per second on the 2-CPU machine that
// defined the benchmark; it fixes the scale of the scaled metrics.
const refRounds = 7000

// Each speed sample is the median of calBursts bursts of calBurst, so a
// garbage collection finishing in the background spoils few of them.
const (
	calBursts = 8
	calBurst  = 15 * time.Millisecond
)

// calibrator runs the kernel on GOMAXPROCS goroutines at once, like the
// workloads. Its buffers are allocated once, so sampling adds nothing to
// the heap the windows measure.
type calibrator struct {
	words [][]uint64
	table [][]uint32
}

func newCalibrator() *calibrator {
	n := runtime.GOMAXPROCS(0)
	c := &calibrator{words: make([][]uint64, n), table: make([][]uint32, n)}
	for i := range n {
		c.words[i] = make([]uint64, 4096)
		c.table[i] = make([]uint32, 8192)
	}
	return c
}

// speed returns the machine's current speed relative to the reference
// machine: above 1 it runs faster.
func (c *calibrator) speed() float64 {
	var rates [calBursts]float64
	for b := range rates {
		var (
			rounds atomic.Int64
			stop   atomic.Bool
			wg     sync.WaitGroup
		)
		start := time.Now()
		for g := range c.words {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for x := uint64(g)*0x9e3779b97f4a7c15 + 1; !stop.Load(); rounds.Add(1) {
					x = kernelRound(x, c.words[g], c.table[g])
				}
			}()
		}
		time.Sleep(calBurst)
		stop.Store(true)
		wg.Wait()
		rates[b] = float64(rounds.Load()) / time.Since(start).Seconds()
	}
	return median(rates[:]) / refRounds
}

// kernelRound fills words from an xorshift stream seeded by x, sorts
// them, and inserts them into an open-addressing table; it returns the
// stream's next state.
func kernelRound(x uint64, words []uint64, table []uint32) uint64 {
	for i := range words {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		words[i] = x
	}
	slices.Sort(words)
	clear(table)
	mask := uint64(len(table) - 1)
	for i, w := range words {
		h := (w * 0x9e3779b97f4a7c15) >> 51 & mask
		for table[h] != 0 {
			h = (h + 1) & mask
		}
		table[h] = uint32(i + 1)
	}
	return x
}
