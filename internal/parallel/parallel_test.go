package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 500
		counts := make([]atomic.Int32, n)
		For(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForWorkersOneRunsInOrder(t *testing.T) {
	var order []int
	For(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential mode ran out of order: %v", order)
		}
	}
}

func TestForZeroItems(t *testing.T) {
	called := false
	For(4, 0, func(int) { called = true })
	if called {
		t.Fatal("For called fn with n=0")
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in worker did not propagate to caller")
		}
	}()
	For(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

// goroutineID parses the running goroutine's id from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return ""
	}
	return string(f[1])
}

// TestForCallerSharePanicWaitsForWorkers: the calling goroutine runs one
// worker's share, and a panic there is re-raised only after the other
// workers have stopped. The caller's index waits until the other worker
// holds its own index, then panics while that worker is still running.
func TestForCallerSharePanicWaitsForWorkers(t *testing.T) {
	caller := goroutineID()
	var onCaller atomic.Bool
	var otherDone atomic.Bool
	otherIn := make(chan struct{})
	var closeOther sync.Once
	defer func() {
		r := recover()
		if !onCaller.Load() {
			t.Fatal("no index ran on the calling goroutine")
		}
		if r != "boom" {
			t.Fatalf("recovered %v, want the caller's panic", r)
		}
		if !otherDone.Load() {
			t.Fatal("panic re-raised before the other worker stopped")
		}
	}()
	For(2, 2, func(i int) {
		if goroutineID() == caller {
			onCaller.Store(true)
			select {
			case <-otherIn:
			case <-time.After(5 * time.Second):
			}
			panic("boom")
		}
		closeOther.Do(func() { close(otherIn) })
		time.Sleep(20 * time.Millisecond)
		otherDone.Store(true)
	})
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	fail := map[int]bool{13: true, 3: true, 97: true}
	for _, workers := range []int{1, 2, 8} {
		err := ForErr(workers, 100, func(i int) error {
			if fail[i] {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Fatalf("workers=%d: got %v, want fail-3", workers, err)
		}
	}
}

func TestForErrNilOnSuccess(t *testing.T) {
	if err := ForErr(8, 50, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForErrSkipsOnlyAboveFailure(t *testing.T) {
	// Every index below the failing one must run even under heavy
	// contention — the determinism guarantee of the lowest-index rule.
	sentinel := errors.New("stop")
	for trial := 0; trial < 20; trial++ {
		var ran [40]atomic.Bool
		err := ForErr(8, 40, func(i int) error {
			ran[i].Store(true)
			if i == 20 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("got %v", err)
		}
		for i := 0; i <= 20; i++ {
			if !ran[i].Load() {
				t.Fatalf("trial %d: index %d below the failure was skipped", trial, i)
			}
		}
	}
}
