// Package loadgen drives an HTTP server from the client's side of the
// socket: an open-loop scheduler that times every request from the
// moment it was due (so a server stall is charged to every request it
// delays, not only the one it hit), a closed-loop driver, and raw-sample
// percentiles. Connections are plain keep-alive HTTP/1.1 sockets, one
// request in flight each, so the generator costs the box it shares with
// the server as little as possible.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one round trip; a server that hangs longer
// fails the request instead of hanging the benchmark.
const requestTimeout = 30 * time.Second

// BuildRequest renders one HTTP/1.1 request. An empty method means GET.
func BuildRequest(method, uri string, body []byte) []byte {
	if method == "" {
		method = http.MethodGet
	}
	var b bytes.Buffer
	b.WriteString(method + " " + uri + " HTTP/1.1\r\nHost: bench\r\n")
	if body != nil {
		b.WriteString("Content-Type: application/xml\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n")
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// Conn is one keep-alive connection. It redials after a transport
// error, so one failed request does not fail the rest of the run.
type Conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

// Dial opens a connection to addr.
func Dial(addr string) (*Conn, error) {
	c := &Conn{addr: addr}
	return c, c.redial()
}

func (c *Conn) redial() error {
	c.Close()
	nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

// Close releases the socket.
func (c *Conn) Close() {
	if c.c != nil {
		_ = c.c.Close() // nothing is buffered for writing
		c.c = nil
	}
}

// Do sends one prebuilt request and reads the whole response. The
// returned body is only valid until the next Do.
func (c *Conn) Do(req []byte) (status int, body []byte, err error) {
	if err := c.send(req); err != nil {
		return 0, nil, err
	}
	return c.receive()
}

// send writes one request, dialling first if the last round trip failed.
func (c *Conn) send(req []byte) error {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return err
		}
	}
	err := c.c.SetDeadline(time.Now().Add(requestTimeout))
	if err == nil {
		_, err = c.c.Write(req)
	}
	if err != nil {
		c.Close()
	}
	return err
}

// receive reads the response to the request send wrote.
func (c *Conn) receive() (int, []byte, error) {
	if c.c == nil {
		return 0, nil, net.ErrClosed
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err == nil {
		c.body.Reset()
		_, err = io.Copy(&c.body, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		c.Close()
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// Sample is one completed (or failed) request.
type Sample struct {
	Lat    time.Duration // open loop: completion − due time; closed loop: completion − send
	Lag    time.Duration // generator lateness: open loop release − due; closed loop send − previous reply
	Status int           // 0 on a transport error
}

// Result is what one phase measured.
type Result struct {
	Samples []Sample
	Elapsed time.Duration
	// Bodies holds a copy of the response to stream index i for the
	// first len(Bodies) indices (nil where the request failed).
	Bodies [][]byte
}

// OK counts samples answered 2xx.
func (r *Result) OK() int {
	n := 0
	for _, s := range r.Samples {
		if s.Status >= 200 && s.Status < 300 {
			n++
		}
	}
	return n
}

// Statuses counts samples per status code (0 = transport error).
func (r *Result) Statuses() map[int]int {
	m := map[int]int{}
	for _, s := range r.Samples {
		m[s.Status]++
	}
	return m
}

// Over counts samples that failed or took longer than limit.
func (r *Result) Over(limit time.Duration) int {
	n := 0
	for _, s := range r.Samples {
		if s.Status < 200 || s.Status >= 300 || s.Lat > limit {
			n++
		}
	}
	return n
}

// LatenciesMS returns every sample's latency in milliseconds, sorted.
func (r *Result) LatenciesMS() []float64 {
	return r.sortedMS(func(s Sample) time.Duration { return s.Lat })
}

// LagsMS returns every sample's generator lateness in milliseconds, sorted.
func (r *Result) LagsMS() []float64 { return r.sortedMS(func(s Sample) time.Duration { return s.Lag }) }

func (r *Result) sortedMS(f func(Sample) time.Duration) []float64 {
	out := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = float64(f(s)) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// Quantile is the nearest-rank q-quantile of sorted raw samples (no
// interpolation, no histogram buckets); NaN when there are none.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// TailQuantile picks the highest of p90, p99, p99.9, p99.99 that still
// has at least ten samples beyond it — the deepest tail the sample
// count supports — and 0.5 when even p90 does not.
func TailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10-1e-9 { // 1-q is not exact in binary
			best = q
		}
	}
	return best
}

type job struct {
	index int
	due   time.Time
	enq   time.Time // when the scheduler released it
}

// openConn is a connection of the open loop. The scheduler writes a
// due request on an idle connection itself, so nothing but the clock
// stands between the due time and the socket; the connection's reader
// goroutine is then told, through inflight, to collect the reply.
type openConn struct {
	*Conn
	inflight chan job // capacity 1: a connection has one request in flight
}

// OpenLoop sends reqs[i] at start + i/rate for d (or until reqs runs
// out), whatever the server does: a request that falls due while every
// connection is busy waits for the next free one, and its latency
// counts from the due time. Responses to the first keep indices are
// retained.
func OpenLoop(ctx context.Context, addr string, conns int, rate float64, d time.Duration, reqs [][]byte, keep int) (*Result, error) {
	n := int(rate * d.Seconds())
	if n > len(reqs) {
		n = len(reqs)
	}
	cs, err := dialAll(addr, conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)

	res := &Result{Bodies: make([][]byte, min(keep, n))}
	var mu sync.Mutex // guards idle, pending and res.Samples
	var idle []*openConn
	var pending []job // due, waiting for a connection
	var readers sync.WaitGroup
	for _, c := range cs {
		oc := &openConn{Conn: c, inflight: make(chan job, 1)}
		idle = append(idle, oc)
		readers.Add(1)
		go func() {
			defer readers.Done()
			for j := range oc.inflight {
				for {
					status, body, _ := oc.receive()
					s := Sample{Lat: time.Since(j.due), Lag: j.enq.Sub(j.due), Status: status}
					if j.index < len(res.Bodies) && status != 0 {
						res.Bodies[j.index] = append([]byte(nil), body...)
					}
					mu.Lock()
					res.Samples = append(res.Samples, s)
					if len(pending) == 0 {
						idle = append(idle, oc)
						mu.Unlock()
						break
					}
					j = pending[0]
					pending = pending[1:]
					mu.Unlock()
					_ = oc.send(reqs[j.index]) // a failed send fails the receive that follows
				}
			}
		}()
	}

	defer prioritize()() // this goroutine is the scheduler
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		j := job{index: i, due: due, enq: time.Now()}
		mu.Lock()
		if len(idle) == 0 {
			pending = append(pending, j)
			mu.Unlock()
			continue
		}
		oc := idle[len(idle)-1]
		idle = idle[:len(idle)-1]
		mu.Unlock()
		_ = oc.send(reqs[i]) // as above
		oc.inflight <- j
	}
	// Every connection drains pending before it goes idle, so once all
	// are idle again nothing is in flight or waiting.
	for {
		mu.Lock()
		quiet := len(idle) == len(cs)
		mu.Unlock()
		if quiet {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, oc := range idle {
		close(oc.inflight)
	}
	readers.Wait()
	res.Elapsed = time.Since(start)
	return res, ctx.Err()
}

// ClosedLoop runs clients connections that each send the next unsent
// request of reqs as soon as the previous reply arrives, for d or
// until reqs runs out.
func ClosedLoop(ctx context.Context, addr string, clients int, d time.Duration, reqs [][]byte, keep int) (*Result, error) {
	cs, err := dialAll(addr, clients)
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)

	res := &Result{Bodies: make([][]byte, min(keep, len(reqs)))}
	perConn := make([][]Sample, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := range cs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev := time.Now()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				sent := time.Now()
				if i >= len(reqs) || !sent.Before(deadline) {
					return
				}
				status, body, _ := cs[w].Do(reqs[i])
				done := time.Now()
				perConn[w] = append(perConn[w], Sample{Lat: done.Sub(sent), Lag: sent.Sub(prev), Status: status})
				if i < len(res.Bodies) && status != 0 {
					res.Bodies[i] = append([]byte(nil), body...)
				}
				prev = done
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, s := range perConn {
		res.Samples = append(res.Samples, s...)
	}
	return res, ctx.Err()
}

func dialAll(addr string, n int) ([]*Conn, error) {
	cs := make([]*Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := Dial(addr)
		if err != nil {
			closeAll(cs)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*Conn) {
	for _, c := range cs {
		c.Close()
	}
}
