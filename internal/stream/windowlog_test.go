package stream

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
)

// TestStreamWindowStatsExactSize: a run's WindowStats hold one stat per
// window in a slice whose capacity is its length, and collecting n stats
// allocates at most 2.25n stats' bytes plus one chunk — the log's chunks
// and the exact-size copy, each rounded up to the allocator's size class —
// where regrowing one slice by append allocates about 5n.
func TestStreamWindowStatsExactSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWindow = 1
	names := make([]string, 40)
	for i := range names {
		names[i] = model.Names()[i%len(model.Names())]
	}
	res, err := newScheduler(t, cfg).RunContext(t.Context(), streamOf(t, 20*time.Millisecond, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WindowStats) != res.Windows || cap(res.WindowStats) != len(res.WindowStats) {
		t.Fatalf("%d windows: WindowStats has length %d and capacity %d, want both %d",
			res.Windows, len(res.WindowStats), cap(res.WindowStats), res.Windows)
	}

	const n = 4096
	var log windowLog
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		log.add(WindowStat{Requests: i})
	}
	stats := log.stats()
	runtime.ReadMemStats(&after)
	if len(stats) != n || cap(stats) != n {
		t.Fatalf("%d logged stats: length %d, capacity %d", n, len(stats), cap(stats))
	}
	for i, ws := range stats {
		if ws.Requests != i {
			t.Fatalf("stat %d holds window %d", i, ws.Requests)
		}
	}
	size := uint64(unsafe.Sizeof(WindowStat{}))
	budget := (9*n/4 + maxWindowChunk) * size
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("collecting %d stats of %d bytes allocated %d bytes (%.2f stats per window), budget %d",
			n, size, got, float64(got)/float64(n*size), budget)
	}
}
