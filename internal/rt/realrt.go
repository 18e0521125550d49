package rt

import (
	"runtime"
	"sync"
	"time"
)

// NewReal returns the real-threaded runtime: processes are goroutines,
// the clock is wall time since construction, sleeps block the calling
// goroutine for real durations, and events are channel broadcasts. Runs
// are NOT reproducible — this mode exists to serve traffic as fast as the
// hardware allows, not to regenerate figures.
//
// Sleeps wake within tens of microseconds of their deadline on Linux
// (see realRT), so modeled sub-millisecond costs keep their size.
func NewReal() Runtime {
	return &realRT{epoch: time.Now()}
}

// realRT runs processes as goroutines on the wall clock.
//
// Its sleeps pay the model's costs in wall time: a 61 µs CPU burst per
// vector, device service times, throttle pauses. time.Sleep cannot pay
// them faithfully: when the process is otherwise idle, the netpoller
// rounds a sub-millisecond timer up to a 1 ms epoll_wait timeout, so a
// 61 µs burst takes about 1.07 ms. On Linux, Sleep and SleepUntil
// therefore arm a pooled CLOCK_MONOTONIC timerfd and read it through the
// netpoller: epoll_wait returns when the fd fires, and the sleep
// overshoots by tens of microseconds instead of up to a millisecond.
// The goroutine parks while it waits, holding neither an OS thread (as
// nanosleep would) nor a CPU (as spinning to the deadline would): the
// price of precision is two system calls and a wake-up per sleep, not a
// core. Elsewhere, or when no
// timerfd can be created, sleeps fall back to time.Sleep. Neither path
// returns before the requested time.
type realRT struct {
	epoch time.Time
	wg    sync.WaitGroup
}

func (r *realRT) Real() bool { return true }

func (r *realRT) Now() Time { return Time(time.Since(r.epoch)) }

// Go spawns fn as a goroutine tracked by Run. Spawning from within a
// tracked goroutine is safe: the parent's count is still positive when
// the child's Add executes.
func (r *realRT) Go(name string, fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

func (r *realRT) Sleep(d Duration) {
	if d > 0 {
		preciseSleep(d)
		return
	}
	runtime.Gosched()
}

func (r *realRT) SleepUntil(t Time) {
	if d := Duration(t - r.Now()); d > 0 {
		preciseSleep(d)
	}
}

func (r *realRT) Yield() { runtime.Gosched() }

func (r *realRT) NewEvent() Event {
	return &realEvent{ch: make(chan struct{})}
}

func (r *realRT) NewResource(capacity int) Resource {
	if capacity <= 0 {
		panic("rt: resource capacity must be positive")
	}
	return &realResource{ch: make(chan struct{}, capacity)}
}

func (r *realRT) NewWaitGroup() WaitGroup { return &sync.WaitGroup{} }

func (r *realRT) Run() { r.wg.Wait() }

// realEvent broadcasts by closing the current generation's channel and
// installing a fresh one. A Waiter captures the channel of the generation
// it was obtained in, so a Fire between Waiter() and Wait() is never
// lost: Wait finds the captured channel already closed and returns
// immediately.
type realEvent struct {
	mu sync.Mutex
	ch chan struct{}
}

func (e *realEvent) Waiter() Waiter {
	e.mu.Lock()
	ch := e.ch
	e.mu.Unlock()
	return chanWaiter(ch)
}

func (e *realEvent) Wait() { e.Waiter().Wait() }

func (e *realEvent) Fire() {
	e.mu.Lock()
	close(e.ch)
	e.ch = make(chan struct{})
	e.mu.Unlock()
}

type chanWaiter chan struct{}

func (w chanWaiter) Wait() { <-w }

// realResource is a buffered-channel semaphore; blocked Acquirers are
// served in the runtime's wake order (approximately FIFO), not the sim
// resource's strict FIFO — callers must not rely on fairness.
type realResource struct {
	ch chan struct{}
}

func (r *realResource) Acquire() { r.ch <- struct{}{} }

func (r *realResource) Release() {
	select {
	case <-r.ch:
	default:
		panic("rt: Release without Acquire")
	}
}

func (r *realResource) InUse() int    { return len(r.ch) }
func (r *realResource) Capacity() int { return cap(r.ch) }

// WorkerPool bounds the number of concurrently executing tasks, modeling
// a fixed pool of worker threads (the executor sizes one by -cores for
// XChg subplan fan-out in real mode). Tasks beyond the bound queue on the
// semaphore in spawn order. Each task is still a tracked process, so
// Runtime.Run accounts for queued work and no teardown call is needed.
type WorkerPool struct {
	r   Runtime
	sem chan struct{}
}

// NewWorkerPool creates a pool of the given size on the runtime.
func NewWorkerPool(r Runtime, size int) *WorkerPool {
	if size <= 0 {
		size = 1
	}
	return &WorkerPool{r: r, sem: make(chan struct{}, size)}
}

// Size returns the pool's concurrency bound.
func (p *WorkerPool) Size() int { return cap(p.sem) }

// Submit schedules task; it runs as soon as a worker slot is free.
func (p *WorkerPool) Submit(name string, task func()) {
	p.r.Go(name, func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		task()
	})
}
