package rt

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// maxTimerFDs caps the timer fds the real runtime keeps open. It bounds
// the fds sleeps can hold however many goroutines sleep at once, so a
// burst of sleepers cannot starve sockets and files of descriptors.
// Sleepers beyond the cap fall back to time.Sleep. The engine's
// concurrent sleepers (MPL scans, worker pools, device queues) number in
// the tens.
const maxTimerFDs = 256

var timers = timerPool{limit: maxTimerFDs}

// preciseSleep blocks the calling goroutine for at least d > 0, waking
// within tens of microseconds of it. See realRT for why it is built on
// timerfd.
func preciseSleep(d Duration) { timers.sleep(d) }

// timerPool hands out timerfds for reuse, so a sleep costs two system
// calls (settime and read) instead of also creating and closing an fd.
// At most limit fds are ever open; idle ones stay in the pool.
type timerPool struct {
	mu    sync.Mutex
	idle  []*timerFD
	open  int // fds created and not yet closed
	limit int
}

// sleep blocks for at least d on a pooled timerfd, or in time.Sleep when
// no timerfd can be had: the pool is at its limit or timerfd_create
// fails (EMFILE, a seccomp filter, ...).
func (p *timerPool) sleep(d Duration) {
	t := p.get()
	if t == nil {
		time.Sleep(d)
		return
	}
	if err := t.sleep(d); err != nil {
		// The fd is in an unknown state and the time already slept is
		// unknown: drop the fd and sleep the whole span again, which may
		// overshoot but cannot return early.
		p.discard(t)
		time.Sleep(d)
		return
	}
	p.put(t)
}

func (p *timerPool) get() *timerFD {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		t := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return t
	}
	if p.open >= p.limit {
		p.mu.Unlock()
		return nil
	}
	p.open++
	p.mu.Unlock()
	t, err := newTimerFD()
	if err != nil {
		p.mu.Lock()
		p.open--
		p.mu.Unlock()
		return nil
	}
	return t
}

func (p *timerPool) put(t *timerFD) {
	p.mu.Lock()
	p.idle = append(p.idle, t)
	p.mu.Unlock()
}

func (p *timerPool) discard(t *timerFD) {
	t.f.Close()
	p.mu.Lock()
	p.open--
	p.mu.Unlock()
}

// timerFD is a CLOCK_MONOTONIC timerfd registered with the Go netpoller
// through an os.File: a Read on it parks the goroutine until the timer
// expires, without holding an OS thread.
type timerFD struct {
	fd  int // raw descriptor for settime; f.Fd() would make it blocking
	f   *os.File
	buf [8]byte // expiration count read from the fd
}

// itimerspec mirrors struct itimerspec for timerfd_settime.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock behind time.Since

func newTimerFD() (*timerFD, error) {
	// TFD_NONBLOCK and TFD_CLOEXEC are defined as O_NONBLOCK and
	// O_CLOEXEC on every architecture.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	// NewFile sees the non-blocking flag and registers the fd with the
	// netpoller, so Read parks instead of blocking the thread.
	return &timerFD{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep arms a one-shot relative expiry of d > 0 and reads the fd, which
// returns once the expiry has passed. The timer runs on the monotonic
// clock from the moment it is armed, so the wait is never shorter than d.
func (t *timerFD) sleep(d Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	// settime never blocks, so it skips the scheduler's syscall hand-off.
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return errno
	}
	_, err := t.f.Read(t.buf[:])
	return err
}
