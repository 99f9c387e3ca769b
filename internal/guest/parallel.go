package guest

import (
	"runtime"
	"sync"
)

// RunDigestParallel is RunDigest with row-level parallelism: within one
// guest step every cell depends only on the previous row, so the row is
// sharded across workers goroutines (0 means GOMAXPROCS). Database updates
// stay per-cell sequential, so results are bit-identical to RunDigest;
// tests assert it. The host engines use it for verification of large runs.
func RunDigestParallel(spec Spec, workers int) (*DigestResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runDigest(spec, workers)
}

// runDigest is the one two-row executor behind RunDigest and
// RunDigestParallel. One worker, or fewer than 256 nodes, runs every row
// inline on the caller's goroutine; otherwise each step's row is statically
// sharded across workers goroutines.
func runDigest(spec Spec, workers int) (*DigestResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := spec.Graph.NumNodes()
	if workers > m {
		workers = m
	}
	if m < 256 {
		workers = 1
	}
	factory := spec.Factory()
	dbs := make([]Database, m)
	for i := range dbs {
		dbs[i] = factory(i, spec.Seed)
	}
	prev := make([]uint64, m)
	next := make([]uint64, m)
	for i := range prev {
		prev[i] = spec.InitialValue(i)
	}

	// static sharding: worker w owns cells [bounds[w], bounds[w+1])
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * m / workers
	}
	var wg sync.WaitGroup
	var work int64
	var scratch [8]uint64
	for t := 1; t <= spec.Steps; t++ {
		if workers <= 1 {
			spec.stepCells(dbs, prev, next, scratch[:], 0, m, t)
		} else {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(lo, hi, t int) {
					defer wg.Done()
					var scratch [8]uint64
					spec.stepCells(dbs, prev, next, scratch[:], lo, hi, t)
				}(bounds[w], bounds[w+1], t)
			}
			wg.Wait()
		}
		prev, next = next, prev
		work += int64(m)
	}

	out := &DigestResult{
		LastRow:      append([]uint64(nil), prev...),
		FinalDigests: make([]uint64, m),
		Work:         work,
	}
	h := uint64(0x9216d5d98979fb1b)
	for i, db := range dbs {
		out.FinalDigests[i] = db.Digest()
	}
	for _, v := range out.LastRow {
		h = combine(h, v)
	}
	for _, v := range out.FinalDigests {
		h = combine(h, v)
	}
	out.Checksum = h
	return out, nil
}
