package main

import (
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

func affinity(op uintptr, tid int, m *cpuMask) syscall.Errno {
	_, _, e := syscall.RawSyscall(op, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return e
}

// cpuSplit divides the CPUs this process may use between the server,
// which gets the last one, and the generator, which gets the rest. ok is
// false with one CPU, or where affinity cannot be read.
func cpuSplit() (server, generator, all cpuMask, ok bool) {
	if affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &all) != 0 {
		return server, generator, all, false
	}
	n, last := 0, -1
	for w, word := range all {
		n += bits.OnesCount64(word)
		if word != 0 {
			last = w*64 + 63 - bits.LeadingZeros64(word)
		}
	}
	if n < 2 {
		return server, generator, all, false
	}
	generator = all
	server[last/64] = 1 << (last % 64)
	generator[last/64] &^= server[last/64]
	return server, generator, all, true
}

// startPinned starts cmd on the server's CPU, so the server keeps one
// core to itself. The child inherits the affinity of the thread that
// forks it, so the calling thread is pinned for the fork and restored
// after. Where the CPUs cannot be split, cmd starts unpinned.
func startPinned(cmd *exec.Cmd) error {
	server, _, all, ok := cpuSplit()
	if !ok {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &server) != 0 {
		return cmd.Start()
	}
	err := cmd.Start()
	_ = affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &all) // restoring a mask the thread already had
	return err
}

// pinGenerator keeps this process's threads off the server's CPU while a
// serve pass runs, and returns the function that releases them. Threads
// started meanwhile inherit the mask from their creator, and the release
// covers them too.
func pinGenerator() (release func()) {
	_, generator, all, ok := cpuSplit()
	if !ok {
		return func() {}
	}
	setProcessAffinity(&generator)
	return func() { setProcessAffinity(&all) }
}

// setProcessAffinity sets every thread of this process to m. Threads
// that exit meanwhile are skipped; the mask is a placement hint, so a
// failure leaves that thread where it was.
func setProcessAffinity(m *cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			_ = affinity(syscall.SYS_SCHED_SETAFFINITY, tid, m)
		}
	}
}
