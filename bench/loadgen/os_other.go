//go:build !linux

package loadgen

import (
	"os/exec"
	"time"
)

// The benchmark is measured on Linux (Proc.Stat reads /proc). Elsewhere
// the package still builds, so `go build ./...` and the tests that need
// no server stay green: the scheduler sleeps with the runtime's coarser
// timer, and a child outlives a harness that is killed outright.

func prioritize() (undo func()) { return func() {} }

func waitUntil(due time.Time) { time.Sleep(time.Until(due)) }

func dieWithParent(*exec.Cmd) {}
