package stream

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func feedWindow(idx int) WindowStat {
	return WindowStat{Requests: idx, Start: time.Duration(idx) * time.Millisecond}
}

func TestFeedNilSafety(t *testing.T) {
	var f *Feed
	f.start()
	f.stop()
	f.publish(feedWindow(0))
	if f.Ready() {
		t.Error("nil feed reports ready")
	}
	if f.Total() != 0 {
		t.Error("nil feed reports published windows")
	}
	if f.Live() != nil {
		t.Error("nil feed returns a live snapshot")
	}
	ch, cancel := f.Subscribe(4)
	cancel()
	if _, ok := <-ch; ok {
		t.Error("nil feed subscription channel is not closed")
	}
}

func TestFeedRingEviction(t *testing.T) {
	const capacity = 4
	f := NewFeed(capacity)
	for i := 0; i < 10; i++ {
		f.publish(feedWindow(i))
	}
	if got := f.Total(); got != 10 {
		t.Errorf("Total %d, want 10", got)
	}
	live := f.Live()
	if len(live) != capacity {
		t.Fatalf("Live holds %d windows, want the ring capacity %d", len(live), capacity)
	}
	for i, ws := range live {
		if want := 10 - capacity + i; ws.Requests != want {
			t.Errorf("slot %d holds window %d, want %d (oldest first)", i, ws.Requests, want)
		}
	}
}

// TestFeedRingWrapsThrice publishes three times the ring's capacity and,
// after every publish, requires Live to hold exactly the last windows
// published, oldest first, with their contents intact.
func TestFeedRingWrapsThrice(t *testing.T) {
	const capacity = 5
	f := NewFeed(capacity)
	for i := 0; i < 3*capacity; i++ {
		f.publish(feedWindow(i))
		live := f.Live()
		oldest := max(0, i+1-capacity)
		if len(live) != i+1-oldest {
			t.Fatalf("after %d publishes Live holds %d windows, want %d", i+1, len(live), i+1-oldest)
		}
		for j, ws := range live {
			if want := feedWindow(oldest + j); !reflect.DeepEqual(ws, want) {
				t.Fatalf("after %d publishes slot %d holds %+v, want %+v", i+1, j, ws, want)
			}
		}
	}
	if got := f.Total(); got != 3*capacity {
		t.Errorf("Total %d, want %d", got, 3*capacity)
	}
}

func TestFeedDefaultCapacity(t *testing.T) {
	f := NewFeed(0)
	if got := cap(f.ring); got != DefaultFeedCapacity {
		t.Errorf("NewFeed(0) ring capacity %d, want %d", got, DefaultFeedCapacity)
	}
}

func TestFeedReadyTracksRuns(t *testing.T) {
	f := NewFeed(0)
	if f.Ready() {
		t.Error("fresh feed reports ready")
	}
	f.start()
	if !f.Ready() {
		t.Error("feed not ready after start")
	}
	f.start() // overlapping second run
	f.stop()
	if !f.Ready() {
		t.Error("feed lost readiness while one run is still active")
	}
	f.stop()
	if f.Ready() {
		t.Error("feed still ready after every run stopped")
	}
}

func TestFeedSubscribeAndCancel(t *testing.T) {
	f := NewFeed(0)
	ch, cancel := f.Subscribe(4)
	f.publish(feedWindow(1))
	select {
	case ws := <-ch:
		if ws.Requests != 1 {
			t.Errorf("subscriber got window %d, want 1", ws.Requests)
		}
	default:
		t.Fatal("published window never reached the subscriber")
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Error("channel not closed after cancel")
	}
	// Publishing after cancel must not panic on the closed channel.
	f.publish(feedWindow(2))
}

func TestFeedSlowSubscriberDrops(t *testing.T) {
	f := NewFeed(0)
	ch, cancel := f.Subscribe(1)
	defer cancel()
	f.publish(feedWindow(0))
	f.publish(feedWindow(1)) // buffer full: dropped, must not block
	if got := f.Total(); got != 2 {
		t.Errorf("Total %d, want 2 — drops affect subscribers only", got)
	}
	if ws := <-ch; ws.Requests != 0 {
		t.Errorf("subscriber got window %d, want the first (0)", ws.Requests)
	}
	select {
	case ws := <-ch:
		t.Errorf("overflowed window %d was delivered, want dropped", ws.Requests)
	default:
	}
}

func TestFeedConcurrentPublishSubscribe(t *testing.T) {
	f := NewFeed(8)
	const publishers, each = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churning subscribers while publishers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ch, cancel := f.Subscribe(2)
			select {
			case <-ch:
			default:
			}
			cancel()
		}
	}()
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.publish(feedWindow(p*each + i))
				f.Live()
			}
		}(p)
	}
	// Wait for publishers (the subscriber goroutine exits via stop).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for f.Total() < publishers*each {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if got := f.Total(); got != publishers*each {
		t.Errorf("Total %d, want %d", got, publishers*each)
	}
	if got := len(f.Live()); got != 8 {
		t.Errorf("Live holds %d windows, want the ring capacity 8", got)
	}
}
