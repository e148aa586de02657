//go:build linux

package loadgen

import (
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// prioritize ties the calling goroutine to its thread and asks the
// kernel to run that thread ahead of everything else on the box, the
// server included: the open-loop scheduler shares two cores with the
// server it loads, and at equal priority it waits 1-3 ms for a core
// whenever the server's collector has both, which made 1-5 % of the
// requests late. It does nothing but sleep and write a request, so it
// takes next to no time from the server. Raising priority needs
// CAP_SYS_NICE; without it the schedule is only as good as the kernel
// makes it, and client.sched_lag_p99_ms says how good that was.
func prioritize() (undo func()) {
	runtime.LockOSThread()
	tid := syscall.Gettid()
	was, err := syscall.Getpriority(syscall.PRIO_PROCESS, tid) // the raw system call's 20 − nice
	if err == nil {
		err = syscall.Setpriority(syscall.PRIO_PROCESS, tid, -20)
	}
	return func() {
		if err == nil {
			_ = syscall.Setpriority(syscall.PRIO_PROCESS, tid, 20-was) // who may raise it may put it back
		}
		runtime.UnlockOSThread()
	}
}

// waitUntil blocks until due. It sleeps in the kernel directly: the
// Go runtime parks an idle thread in epoll_wait, whose timeout is in
// whole milliseconds, so time.Sleep overshoots by 0.5 ms at the median
// on the build box, where nanosleep overshoots by 0.08 ms. Whatever
// lateness remains is recorded with every sample.
func waitUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// dieWithParent has the kernel kill the child if this process dies
// without running its Cleanup (SIGKILL, a panic in another goroutine).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
