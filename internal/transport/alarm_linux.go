//go:build linux

package transport

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm is a delivery loop's wake-up: a timerfd the runtime's netpoller
// watches. wait parks the loop's goroutine in a read and releases its P,
// and the kernel's expiry wakes epoll_wait at once. A runtime timer would
// fire up to a millisecond late on an idle process: the netpoller rounds
// its wait to whole milliseconds (DESIGN.md, *Wake precision*).
type alarm struct {
	f   *os.File
	fd  uintptr // f's descriptor, kept here: File.Fd would make it blocking
	buf [8]byte // the expiry count wait reads and discards
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

func newAlarm() (*alarm, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK|TFD_CLOEXEC
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &alarm{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// arm sets the alarm to go off once, d from now (at once when d <= 0),
// replacing any earlier setting. The caller holds the shard's lock, which
// orders every arm before close.
func (a *alarm) arm(d time.Duration) {
	if d <= 0 {
		d = 1 // a zero it_value disarms
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	// timerfd_settime only fails on a bad descriptor or value; the lock
	// rules out the first and NsecToTimespec the second.
	_, _, _ = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wait blocks until the alarm goes off. It returns early only when an
// expiry nobody read was pending; the loop re-reads its heap either way.
func (a *alarm) wait() { _, _ = a.f.Read(a.buf[:]) }

func (a *alarm) close() { _ = a.f.Close() }
