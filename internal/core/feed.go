package core

import (
	"context"
	"fmt"

	"codelayout/internal/affinity"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/trace"
	"codelayout/internal/trg"
)

// incremental reports whether this optimizer can analyze prog's trace
// chunk by chunk, with a result byte-identical to OptimizeCtx. Two
// conditions gate it:
//
//   - the model must have a streaming kernel (affinity and TRG do; the
//     baselines — CMG, call-graph, search — replay or iterate over the
//     materialized trace);
//   - popularity pruning must be provably the identity, i.e. the prune
//     bound covers the program's whole alphabet at this granularity
//     (every symbol with a non-zero count is kept and retention is
//     exactly 1.0). Pruning by frequency inherently needs the full
//     trace's counts, so an effective prune cannot start analysis
//     before end-of-stream.
//
// With the paper's default bound of 10,000 blocks and the generated
// suite's program sizes, the gate holds for all four paper optimizers
// at their defaults.
func (o Optimizer) incremental(prog *ir.Program) bool {
	if prog == nil {
		return false
	}
	if o.Model != ModelAffinity && o.Model != ModelTRG {
		return false
	}
	var alphabet int
	switch o.Gran {
	case GranFunction:
		alphabet = prog.NumFuncs()
	case GranBasicBlock:
		alphabet = prog.NumBlocks()
	default:
		return false
	}
	pruneN := o.PruneTopN
	if pruneN == 0 {
		pruneN = DefaultPruneTopN
	}
	return pruneN >= alphabet
}

// Feed is a streaming optimization in progress: the caller pushes
// decoded trace chunks as they arrive (layoutd, while the upload is
// still on the wire) and Finish returns the same layout and Report
// OptimizeCtx would produce from the concatenated trace.
//
// Whether the analysis runs while the chunks arrive is decided here,
// per optimizer and program: the affinity and TRG kernels consume each
// chunk incrementally when pruning is provably the identity; every
// other optimizer (the baselines, or any effective popularity prune,
// which needs the whole trace's counts) has its validated chunks
// collected and handed to OptimizeCtx at Finish.
//
// A Feed is not safe for concurrent use; push chunks from one
// goroutine, then call exactly one of Finish or Abort.
type Feed struct {
	o    Optimizer
	prog *ir.Program

	buf  []int32 // reusable granularity-mapping buffer
	prev int32   // last mapped symbol, for cross-chunk trimming

	aff  *affinity.Feeder
	trgF *trg.Feeder
	trgP trg.Params
	// raw collects the block trace when neither kernel runs
	// incrementally.
	raw []int32

	err  error
	done bool
}

// NewFeed starts a streaming optimization of prog bound to ctx. Every
// optimizer is accepted; see Feed for which ones analyze incrementally.
func (o Optimizer) NewFeed(ctx context.Context, prog *ir.Program) (*Feed, error) {
	if prog == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	f := &Feed{o: o, prog: prog, prev: -1}
	if !o.incremental(prog) {
		return f, nil
	}
	switch o.Model {
	case ModelAffinity:
		f.aff = affinity.NewFeeder(ctx, affinity.Options{
			WMax: o.WMax, Workers: o.Workers, Arena: o.Arena.affinityArena(),
		})
	case ModelTRG:
		f.trgP = trg.DefaultParams(o.trgBlockBytes())
		f.trgP.WindowScale = o.TRGWindowScale
		f.trgP.Workers = o.Workers
		f.trgF = trg.NewFeeder(ctx, f.trgP.WindowBlocks(), o.Workers, 0, o.Arena.trgArena())
	}
	return f, nil
}

// CheckBlocks validates a chunk of a raw basic-block trace against prog:
// every symbol must name one of its blocks. Feed applies it to every
// chunk; a caller that must reject a trace before its Feed runs (layoutd
// answering an upload) applies the same check.
func CheckBlocks(prog *ir.Program, chunk []int32) error {
	nb := int32(prog.NumBlocks())
	for _, s := range chunk {
		if s < 0 || s >= nb {
			return fmt.Errorf("trace symbol %d out of range for %s (%d blocks); is this a basic-block trace of the named program?",
				s, prog.Name, nb)
		}
	}
	return nil
}

// Feed pushes one chunk of the raw basic-block trace. Symbols are
// validated against the program (CheckBlocks); incremental analyses map
// them to the optimizer's granularity and trim across chunk boundaries —
// exactly the preparation OptimizeCtx's trace.prune step performs up
// front. Chunk boundaries are irrelevant to the result.
func (f *Feed) Feed(ctx context.Context, chunk []int32) error {
	if f.err != nil {
		return f.err
	}
	if f.done {
		return fmt.Errorf("core: feed already finished")
	}
	if f.err = CheckBlocks(f.prog, chunk); f.err != nil {
		return f.err
	}
	if f.aff == nil && f.trgF == nil {
		f.raw = append(f.raw, chunk...)
		return nil
	}
	f.buf = f.buf[:0]
	for _, s := range chunk {
		if f.o.Gran == GranFunction {
			s = int32(f.prog.Blocks[s].Fn)
		}
		if s == f.prev {
			continue
		}
		f.prev = s
		f.buf = append(f.buf, s)
	}
	if f.aff != nil {
		f.err = f.aff.Feed(f.buf)
	} else {
		f.err = f.trgF.Feed(f.buf)
	}
	return f.err
}

// Finish seals the stream, completes the analysis and emits the layout.
// The Report is byte-identical to OptimizeCtx over the concatenated
// chunks: same sequence, lengths, retention (exactly 1.0 for an
// incremental analysis, which the incremental gate guarantees pruning
// would report) and jump overhead.
func (f *Feed) Finish(ctx context.Context) (*layout.Layout, Report, error) {
	rep := Report{Optimizer: f.o.Name()}
	if f.err != nil {
		f.Abort()
		return nil, rep, f.err
	}
	if f.done {
		return nil, rep, fmt.Errorf("core: feed already finished")
	}
	f.done = true
	var seq []int32
	switch {
	case f.aff != nil:
		rep.TraceLen = f.aff.N()
		h, err := f.aff.Finish(ctx)
		if err != nil {
			return nil, rep, fmt.Errorf("core: %s analysis: %w", f.o.Name(), err)
		}
		seq = h.Sequence()
	case f.trgF != nil:
		rep.TraceLen = f.trgF.N()
		g, err := f.trgF.Finish(ctx)
		if err != nil {
			return nil, rep, fmt.Errorf("core: %s analysis: %w", f.o.Name(), err)
		}
		seq = trg.ReduceCtx(ctx, g, f.trgP.Slots())
		f.o.Arena.trgArena().PutGraph(g)
	default:
		return f.o.OptimizeCtx(ctx, &Profile{Prog: f.prog, Blocks: trace.New(f.raw)})
	}
	rep.Retention = 1.0
	rep.SeqLen = len(seq)
	rep.Sequence = seq
	l, err := f.o.emitLayout(ctx, f.prog, seq, &rep)
	if err != nil {
		return nil, rep, err
	}
	return l, rep, nil
}

// Abort discards the stream and recycles kernel buffers. Call it
// instead of Finish when the job fails mid-upload.
func (f *Feed) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.raw = nil
	switch {
	case f.aff != nil:
		f.aff.Abort()
	case f.trgF != nil:
		f.trgF.Abort()
	}
}
