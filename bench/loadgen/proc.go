package loadgen

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Cleanup collects undo steps (kill a child, remove a temp dir) and
// runs them once, newest first. Callers defer Run and also call it from
// their signal handler, so the steps run on every exit path; a second
// Run waits for the first to finish, and a step added after Run runs at
// once.
type Cleanup struct {
	mu   sync.Mutex
	fns  []func()
	done bool
}

// Add registers one step.
func (c *Cleanup) Add(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		fn()
		return
	}
	c.fns = append(c.fns, fn)
}

// Run executes every registered step.
func (c *Cleanup) Run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
	c.fns = nil
}

// TempDir creates dir and registers its removal.
func (c *Cleanup) TempDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c.Add(func() { _ = os.RemoveAll(dir) }) // best effort: the directory is scratch
	return nil
}

// FreeAddr returns a loopback address no one is listening on.
func FreeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// Proc is a child server process.
type Proc struct {
	cmd   *exec.Cmd
	done  chan struct{} // closed once Wait has returned
	once  sync.Once
	grace time.Duration // how long Stop waits after SIGTERM before SIGKILL
}

// StartProc launches bin with its output appended to logPath. The
// child is killed if this process dies first, and its Stop is
// registered with c.
func StartProc(c *Cleanup, bin string, args []string, logPath string) (*Proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &Proc{cmd: cmd, done: make(chan struct{}), grace: 5 * time.Second}
	go func() {
		_ = cmd.Wait() // the exit status of a server we signal is not news
		close(p.done)
	}()
	c.Add(p.Stop)
	return p, nil
}

// PID is the child's process id.
func (p *Proc) PID() int { return p.cmd.Process.Pid }

// Exited reports whether the child has ended.
func (p *Proc) Exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Stop asks the child to drain (SIGTERM), kills it if it has not ended
// within the grace period, and returns only once it has ended.
func (p *Proc) Stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
		select {
		case <-p.done:
		case <-time.After(p.grace):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	})
	<-p.done
}

// WaitReady polls GET path on addr until it answers 200, the child
// exits, or timeout passes.
func (p *Proc) WaitReady(addr, path string, timeout time.Duration) error {
	req := BuildRequest("", path, nil)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.Exited() {
			return errors.New("server exited before it was ready")
		}
		if c, err := Dial(addr); err == nil {
			status, _, err := c.Do(req)
			c.Close()
			if err == nil && status == 200 {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server not ready on %s after %v", addr, timeout)
}

// ProcStat is a /proc snapshot of the child.
type ProcStat struct {
	RSSMB   float64 // VmRSS
	PeakMB  float64 // VmHWM
	Threads int
	CPU     time.Duration // utime + stime
}

// clockTick is USER_HZ, fixed at 100 on every Linux port Go supports.
const clockTick = 100

// Stat reads /proc/<pid>/status and /proc/<pid>/stat, so it fails
// anywhere but on Linux.
func (p *Proc) Stat() (ProcStat, error) {
	var st ProcStat
	dir := "/proc/" + strconv.Itoa(p.PID())
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		v, _ := strconv.ParseFloat(f[1], 64) // non-numeric fields are not the ones read below
		switch f[0] {
		case "VmRSS:":
			st.RSSMB = v / 1024
		case "VmHWM:":
			st.PeakMB = v / 1024
		case "Threads:":
			st.Threads = int(v)
		}
	}
	raw, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return st, fmt.Errorf("short %s/stat", dir)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return st, fmt.Errorf("unparsable %s/stat", dir)
	}
	st.CPU = time.Duration(utime+stime) * time.Second / clockTick
	return st, nil
}
