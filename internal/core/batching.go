package core

import (
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// Request batching (paper Appendix D). A single lightweight inference is
// 20–40× shorter than a heavy model's pipeline stage, so vertical alignment
// cannot balance it; coalescing same-model lightweight requests into batches
// closes the gap and amortises weight loading.

// BatchGroup maps one coalesced request back to the original request
// indices it contains.
type BatchGroup struct {
	// Model is the (possibly batched) request handed to the planner.
	Model *model.Model
	// Requests are the original request indices covered by this group.
	Requests []int
}

// coalesceLight groups lightweight requests of the same network into
// batches sized so each batch's execution time approaches the heaviest
// request's solo time (the Appendix-D alignment target), bounded by
// maxBatch. Heavy requests pass through untouched. Request order among
// groups follows the first member of each group; batching reorders only
// identical, independent requests (frames of the same stream).
//
// "The same network" means structurally identical: pointer-equal or
// sameModel, the cost cache's collision guard. A custom model that reuses
// a zoo name but differs in structure is batched on its own. Each class of
// identical requests reads one BatchCurve on the reference processor, which
// gives both its batch-1 time and its alignment batch.
//
// Nothing here is rebuilt per window. The curve and the batched variants
// live on the class's cost-cache entry: a variant is minted once per batch
// size, so a recurring window hands the planner the same group models, and
// the curve is kept per SoC state with the tables, so it is measured once
// per reference-processor state. A one-request group of a light class
// plans the request's own model.
func (pl *Planner) coalesceLight(requests []*model.Model, maxBatch int) []BatchGroup {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if len(requests) == 0 {
		return nil
	}
	classes := make([]batchClass, 0, len(requests))
	classOf := make([]int, len(requests))
	for i, m := range requests {
		c := 0
		for c < len(classes) && !sameModel(classes[c].proto, m) {
			c++
		}
		if c == len(classes) {
			classes = append(classes, batchClass{proto: m, curve: pl.cache.batchCurve(m)})
		}
		classOf[i] = c
		classes[c].size++
	}
	var target time.Duration
	for _, c := range classes {
		if t := c.curve.Latency(1); t != soc.InfDuration && t > target {
			target = t
		}
	}
	// Lightweight: under a quarter of the heaviest request.
	lightBound := target / 4
	for k := range classes {
		c := &classes[k]
		if t := c.curve.Latency(1); t != soc.InfDuration && t <= lightBound {
			c.batch = min(c.curve.Align(target, maxBatch), c.size)
		}
	}

	// Emit groups in order of their first request: a heavy request at its
	// own index, a light batch at its first member's. Every request lands
	// in one group, so the groups' Requests slices share one backing array.
	groups := make([]BatchGroup, 0, len(requests))
	members := make([]int, 0, len(requests))
	for i, m := range requests {
		c := &classes[classOf[i]]
		size := 1
		if c.batch > 0 {
			opens := c.placed%c.batch == 0
			c.placed++
			if !opens {
				continue
			}
			size = min(c.batch, c.size-c.placed+1)
		}
		start := len(members)
		for j := i; len(members)-start < size; j++ {
			if classOf[j] == classOf[i] {
				members = append(members, j)
			}
		}
		if size > 1 {
			m = pl.cache.batchedModel(c.proto, size)
		}
		groups = append(groups, BatchGroup{Model: m, Requests: members[start:len(members):len(members)]})
	}
	return groups
}

// batchClass is one class of structurally identical requests in a window.
type batchClass struct {
	// proto is the class's first request; its batches are built from it.
	proto *model.Model
	curve soc.BatchCurve
	// size counts the class's requests, placed those already walked past.
	size, placed int
	// batch is the alignment batch of a light class, 0 for a heavy one.
	batch int
}

// referenceProcessor picks the big CPU (or the first processor) as the
// Appendix-D profiling reference.
func referenceProcessor(s *soc.SoC) *soc.Processor {
	return &s.Processors[referenceIndex(s)]
}

// referenceIndex is the reference processor's index in s.Processors.
func referenceIndex(s *soc.SoC) int {
	for i := range s.Processors {
		if s.Processors[i].Kind == soc.KindCPUBig {
			return i
		}
	}
	return 0
}

// identityGroups wraps each request as its own group, in window order — the
// groups of an unbatched window. Their one-element Requests slices share one
// backing array, so the groups cost two allocations whatever the window
// size.
func identityGroups(models []*model.Model) []BatchGroup {
	reqs := identityOrder(len(models))
	groups := make([]BatchGroup, len(models))
	for i, m := range models {
		groups[i] = BatchGroup{Model: m, Requests: reqs[i : i+1 : i+1]}
	}
	return groups
}

// OrderGroups permutes batch groups into a plan's request order:
// out[pos] = groups[plan.Order[pos]]. The input is untouched.
func OrderGroups(groups []BatchGroup, order []int) []BatchGroup {
	ordered := make([]BatchGroup, len(groups))
	for pos, orig := range order {
		ordered[pos] = groups[orig]
	}
	return ordered
}
