package stream

import "sync"

// fanout is the live-subscriber set behind Feed and TraceStore: buffered
// channels registered by Subscribe, each sent every published value unless
// its buffer is full, in which case that subscriber misses the value — a
// slow reader never blocks the scheduler. The zero value is ready to use
// and safe for concurrent use.
type fanout[T any] struct {
	mu     sync.Mutex
	subs   map[int]chan T
	nextID int
}

// subscribe registers a channel with room for buffer values (16 when
// buffer < 1). The returned cancel function unregisters and closes it; a
// second call is a no-op.
func (f *fanout[T]) subscribe(buffer int) (<-chan T, func()) {
	if buffer < 1 {
		buffer = 16
	}
	ch := make(chan T, buffer)
	f.mu.Lock()
	if f.subs == nil {
		f.subs = make(map[int]chan T)
	}
	id := f.nextID
	f.nextID++
	f.subs[id] = ch
	f.mu.Unlock()
	cancel := func() {
		f.mu.Lock()
		if _, ok := f.subs[id]; ok {
			delete(f.subs, id)
			close(ch)
		}
		f.mu.Unlock()
	}
	return ch, cancel
}

// send offers v to every subscriber without blocking and returns how many
// dropped it on a full buffer. It allocates nothing.
func (f *fanout[T]) send(v T) (dropped int) {
	f.mu.Lock()
	for _, ch := range f.subs {
		select {
		case ch <- v:
		default:
			dropped++
		}
	}
	f.mu.Unlock()
	return dropped
}

// closedSubscription is what Subscribe returns on a nil Feed or
// TraceStore: a closed channel and a no-op cancel.
func closedSubscription[T any]() (<-chan T, func()) {
	ch := make(chan T)
	close(ch)
	return ch, func() {}
}
