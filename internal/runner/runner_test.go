package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestMapResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 33} {
		out, err := MapCtx(context.Background(), New(workers), 100, nil, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := MapCtx(context.Background(), New(4), 0, nil, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("MapCtx(0 items) = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	errAt := func(bad map[int]bool) error {
		_, err := MapCtx(context.Background(), New(8), 64, nil, func(i int) (int, error) {
			if bad[i] {
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		})
		return err
	}
	// Whatever the scheduling, the reported error must be the one a
	// sequential loop would have stopped on — the lowest failing index.
	for trial := 0; trial < 20; trial++ {
		err := errAt(map[int]bool{7: true, 40: true, 63: true})
		if err == nil || err.Error() != "fail at 7" {
			t.Fatalf("trial %d: err = %v, want fail at 7", trial, err)
		}
	}
}

func TestMapPanicIsTheLowestPanickingIndexError(t *testing.T) {
	// A panicking call fails its index like an error, on the sequential
	// path and across workers alike, and the lowest failing index wins
	// whether the others panic or return errors.
	for _, workers := range []int{1, 4} {
		for trial := 0; trial < 20; trial++ {
			_, err := MapCtx(context.Background(), New(workers), 64, nil, func(i int) (int, error) {
				switch i {
				case 9, 50:
					panic(fmt.Sprintf("bad shard %d", i))
				case 30:
					return 0, errors.New("fail at 30")
				}
				return i, nil
			})
			if want := "runner: index 9 panicked: bad shard 9"; err == nil || err.Error() != want {
				t.Fatalf("workers=%d, trial %d: err = %v, want %q", workers, trial, err, want)
			}
		}
	}
}

func TestMapErrorSkipsRemainingWork(t *testing.T) {
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := MapCtx(context.Background(), New(4), 1_000_000, nil, func(i int) (int, error) {
		calls.Add(1)
		return 0, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n > 1000 {
		t.Fatalf("ran %d shards after failure; cancellation is not working", n)
	}
}

// TestMapAllocatesOutputPlusConstant pins what a map costs the heap: a
// 4,096-item map of ints allocates its 32 KiB output plus a constant,
// the workers' shared state and one closure per worker. A per-index
// error slice would add 64 KiB here.
func TestMapAllocatesOutputPlusConstant(t *testing.T) {
	const n, slack = 4096, 2048
	outBytes := uint64(n * unsafe.Sizeof(int(0)))
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		run := func() {
			if _, err := MapCtx(context.Background(), p, n, nil, func(i int) (int, error) { return i, nil }); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got, ceiling := testing.AllocsPerRun(20, run), float64(2+workers); got > ceiling {
			t.Errorf("workers=%d: %.1f allocations per map, want at most %.0f (output, shared state, one closure per worker)", workers, got, ceiling)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > outBytes+slack {
			t.Errorf("workers=%d: %d bytes per map, want at most the %d-byte output plus %d", workers, perRun, outBytes, slack)
		}
	}
}

func TestNewDefaultsToAllCores(t *testing.T) {
	for _, w := range []int{0, -1} {
		if got := New(w).Workers(); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("New(%d).Workers() = %d, want GOMAXPROCS = %d", w, got, runtime.GOMAXPROCS(0))
		}
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("New(7).Workers() = %d", got)
	}
}
