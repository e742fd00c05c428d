package layout

import "codelayout/internal/ir"

// StreamReplayer is the chunk-fed form of a non-wrapping Replayer: the
// caller pushes block occurrences as they arrive (layoutd decoding an
// upload that is still on the wire) and the fetch stream comes out
// identical to replaying the concatenated trace through AppendLines.
//
// Two per-occurrence rules look one step ahead, so the replayer holds
// back the most recent occurrence until its successor is known:
//
//   - a layout-appended jump patching a Branch only executes when the
//     trace actually goes to the displaced fall-through (the next
//     occurrence decides lastFull vs lastShort);
//   - the held occurrence itself is the "previous block" of the stub
//     rule for whatever follows it.
//
// Finish flushes the held occurrence with no successor — exactly the
// buffered path's non-wrapping trace end.
//
// A StreamReplayer is not safe for concurrent use.
type StreamReplayer struct {
	plan     *replayPlan
	hasStubs bool
	prev     ir.BlockID // last emitted occurrence, for the stub rule
	held     ir.BlockID // most recent occurrence, awaiting its successor
	hasHeld  bool
	blocks   int64
}

// NewStreamReplayer creates a chunk-fed replayer over the given layout.
// The layout is immutable for the replayer's lifetime by contract.
func NewStreamReplayer(l *Layout, lineBytes int) *StreamReplayer {
	return &StreamReplayer{
		plan:     buildReplayPlan(l, int64(lineBytes)),
		hasStubs: l.HasStubs(),
		prev:     ir.NoBlock,
		held:     ir.NoBlock,
	}
}

// Feed appends the cache lines fetched by chunk's occurrences to dst
// and returns the extended slice. Chunk boundaries are irrelevant: any
// split of a trace yields the same line stream. The lines for the
// chunk's final occurrence appear only once its successor arrives (in
// the next chunk, or at Finish).
func (r *StreamReplayer) Feed(dst []int64, chunk []int32) []int64 {
	return r.run(dst, chunk, false)
}

// Finish flushes the held trailing occurrence — its successor is the
// trace end — and returns the extended slice. The replayer is exhausted
// afterwards; further Feed calls start emitting again as if the stream
// continued, so call Finish exactly once, last.
func (r *StreamReplayer) Finish(dst []int64) []int64 {
	return r.run(dst, nil, true)
}

// run emits the held occurrence and every occurrence of chunk but the
// last, each once its successor is known — the same rules, in the same
// order, as Replayer.AppendLines — and, when final, the last one with
// the trace end as its successor. The replay state lives in locals for
// the loop; it is the per-occurrence hot path of layoutd's miss
// simulation.
func (r *StreamReplayer) run(dst []int64, chunk []int32, final bool) []int64 {
	p, hasStubs := r.plan, r.hasStubs
	prev, held, hasHeld, blocks := r.prev, r.held, r.hasHeld, r.blocks
	for i := 0; i <= len(chunk); i++ {
		next := ir.NoBlock
		if i < len(chunk) {
			next = ir.BlockID(chunk[i])
		} else if !final {
			break
		}
		if hasHeld {
			b := held
			if hasStubs && prev != ir.NoBlock {
				if fn := p.entryFn[b]; fn >= 0 && p.callCallee[prev] == fn {
					for ln := p.stubFirst[fn]; ln <= p.stubLast[fn]; ln++ {
						dst = append(dst, ln)
					}
				}
			}
			last := p.lastFull[b]
			if f := p.fall[b]; f != ir.NoBlock && next != f {
				last = p.lastShort[b]
			}
			for ln := p.lineFirst[b]; ln <= last; ln++ {
				dst = append(dst, ln)
			}
			prev = b
			blocks++
		}
		held, hasHeld = next, next != ir.NoBlock
	}
	r.prev, r.held, r.hasHeld, r.blocks = prev, held, hasHeld, blocks
	return dst
}

// Blocks returns the number of occurrences emitted so far (the held
// occurrence counts only after Finish or its successor's arrival).
func (r *StreamReplayer) Blocks() int64 { return r.blocks }
