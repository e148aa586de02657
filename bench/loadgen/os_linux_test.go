//go:build linux

package loadgen

import (
	"runtime"
	"syscall"
	"testing"
)

func TestPrioritizePutsThePriorityBack(t *testing.T) {
	runtime.LockOSThread() // so that all three readings are of one thread
	defer runtime.UnlockOSThread()
	nice := func() int {
		p, err := syscall.Getpriority(syscall.PRIO_PROCESS, syscall.Gettid())
		if err != nil {
			t.Fatal(err)
		}
		return 20 - p // the raw system call returns 20 − nice
	}
	before := nice()
	undo := prioritize()
	during := nice()
	undo()
	if after := nice(); after != before {
		t.Fatalf("nice was %d, is %d after undo", before, after)
	}
	if during != -20 {
		t.Skipf("not allowed to raise priority (nice stayed %d): the scheduler runs at the kernel's mercy", during)
	}
}
