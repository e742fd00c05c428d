package parallel

import (
	"context"
	"sync"
)

// FeedPool runs tasks that arrive over time on a bounded set of
// workers — the streaming counterpart of ForEachCtx, for callers that
// discover their work items incrementally (analysis shards cut from a
// trace as it uploads) instead of holding an indexed collection up
// front.
//
// Semantics mirror ForEachCtx so the Workers=1-vs-N determinism oracle
// extends to streamed dispatch:
//
//   - workers == 1 runs every task inline inside Submit, in submission
//     order — the serial reference path.
//   - With more workers, Submit hands the task to a worker goroutine and
//     blocks while all workers are busy and the hand-off queue is full,
//     so the number of in-flight tasks (queued + executing) never
//     exceeds 2×workers. That backpressure is what bounds the memory a
//     streaming producer can pin.
//   - The error reported by Wait is the one from the earliest-submitted
//     failing task, regardless of completion order. After any task
//     fails (or ctx is canceled), Submit drops subsequent tasks and
//     returns the failure so the producer can stop early.
type FeedPool struct {
	workers int
	ctx     context.Context

	tasks chan feedTask
	wg    sync.WaitGroup

	mu       sync.Mutex
	next     int   // submission index of the next task
	errIndex int   // submission index of err, valid when err != nil
	err      error // earliest-submitted failure (or ctx error)
}

type feedTask struct {
	index int
	run   func(context.Context) error
}

// NewFeedPool starts a pool of Workers(workers) workers bound to ctx.
// The caller must call Wait (or Close) exactly once when done
// submitting, even after a Submit error.
func NewFeedPool(ctx context.Context, workers int) *FeedPool {
	w := Workers(workers)
	p := &FeedPool{workers: w, ctx: ctx}
	if w <= 1 {
		return p
	}
	p.tasks = make(chan feedTask, w)
	p.wg.Add(w)
	for i := 0; i < w; i++ {
		go p.worker()
	}
	return p
}

func (p *FeedPool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		if p.failedBefore(t.index) {
			continue // drain without running: an earlier task already failed
		}
		if err := p.ctx.Err(); err != nil {
			p.record(t.index, err)
			continue
		}
		if err := t.run(p.ctx); err != nil {
			p.record(t.index, err)
		}
	}
}

// record keeps the error of the earliest-submitted failing task, the
// same deterministic choice ForEachCtx makes.
func (p *FeedPool) record(index int, err error) {
	p.mu.Lock()
	if p.err == nil || index < p.errIndex {
		p.err, p.errIndex = err, index
	}
	p.mu.Unlock()
}

// failedBefore reports whether a task submitted before index failed, so
// the task at index cannot change what Wait returns. A later failure
// does not skip it: it may fail itself and become the earliest.
func (p *FeedPool) failedBefore(index int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err != nil && p.errIndex < index
}

func (p *FeedPool) currentErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Submit schedules one task. It blocks while the pool's in-flight bound
// is reached. A non-nil return means the task was NOT scheduled: a
// previous task already failed (that error is returned) or ctx is done.
func (p *FeedPool) Submit(task func(context.Context) error) error {
	if err := p.currentErr(); err != nil {
		return err
	}
	if err := p.ctx.Err(); err != nil {
		p.mu.Lock()
		if p.err == nil {
			p.err, p.errIndex = err, p.next
		}
		p.mu.Unlock()
		return err
	}
	p.mu.Lock()
	index := p.next
	p.next++
	p.mu.Unlock()
	if p.tasks == nil {
		// Serial reference path: run inline, in submission order.
		if err := task(p.ctx); err != nil {
			p.record(index, err)
			return err
		}
		return nil
	}
	select {
	case p.tasks <- feedTask{index: index, run: task}:
		return nil
	case <-p.ctx.Done():
		err := p.ctx.Err()
		p.record(index, err)
		return err
	}
}

// Wait blocks until every submitted task has finished and returns the
// earliest-submitted task's error, if any. The pool cannot be reused
// after Wait.
func (p *FeedPool) Wait() error {
	if p.tasks != nil {
		close(p.tasks)
		p.wg.Wait()
		p.tasks = nil
	}
	return p.currentErr()
}
