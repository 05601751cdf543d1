package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// The benchmark runs on shared machines, where a neighbour's load can
// slow this process by half for minutes at a time. Such a slowdown
// stretches a fixed kernel that does the simulator's kind of work by
// about as much as it stretches the simulator, so every timed stretch is
// multiplied by the kernel's time on a quiet reference machine over its
// time measured just before and just after the stretch: the harness
// reports reference-machine time, and on a quiet machine the factor is
// about 1. The kernel shares no code with the repository, so no change to
// the program can move it.

// refKernelSeconds is one kernel pass on the reference machine (a 2-vCPU
// x86-64 VM, measured while it was quiet).
const refKernelSeconds = 0.006

// kernelRefs is how many references one kernel pass simulates.
const kernelRefs = 300_000

// calibrator is the kernel: a two-level set-associative cache lookup over
// a skewed random address stream, the simulator's hot path in miniature.
// It is not safe for concurrent use; the harness calls it only between
// timed stretches.
type calibrator struct {
	l1, l2     []uint64 // tags: 512 sets x 2 ways, 16384 sets x 4 ways
	l1rr, l2rr []uint8  // per-set round-robin victim
	x          uint64   // xorshift state
	sink       int      // keeps the hit count live
	last       float64  // the kernel time at the last mark, in seconds
}

func newCalibrator() *calibrator {
	c := &calibrator{
		l1: make([]uint64, 512*2), l1rr: make([]uint8, 512),
		l2: make([]uint64, 16384*4), l2rr: make([]uint8, 16384),
		x: 0x9E3779B97F4A7C15,
	}
	c.kernel() // fault the tables in
	return c
}

// kernel times one pass.
func (c *calibrator) kernel() float64 {
	t0 := time.Now()
	hits := 0
	for i := 0; i < kernelRefs; i++ {
		c.x ^= c.x << 13
		c.x ^= c.x >> 7
		c.x ^= c.x << 17
		addr := (c.x >> 8) & (1<<26 - 1) // a 64 MiB footprint ...
		if c.x&3 != 0 {
			addr &= 1<<16 - 1 // ... with three references in four to a hot 64 KiB
		}
		blk := addr >> 6
		s1 := blk & 511
		if c.l1[2*s1] == blk || c.l1[2*s1+1] == blk {
			hits++
			continue
		}
		c.l1[2*s1+uint64(c.l1rr[s1]&1)] = blk
		c.l1rr[s1]++
		s2 := blk & 16383
		hit := false
		for w := uint64(0); w < 4; w++ {
			if c.l2[4*s2+w] == blk {
				hit = true
				break
			}
		}
		if !hit {
			c.l2[4*s2+uint64(c.l2rr[s2]&3)] = blk
			c.l2rr[s2]++
		}
	}
	c.sink += hits
	return time.Since(t0).Seconds()
}

// mark times the kernel right before a timed stretch.
func (c *calibrator) mark() { c.last = c.kernel() }

// factor times the kernel right after the stretch and returns what
// converts the stretch's host time into reference time.
func (c *calibrator) factor() float64 {
	return refKernelSeconds / ((c.last + c.kernel()) / 2)
}

// A request answered from a cache takes a fraction of a millisecond,
// spent in net/http, loopback sockets and goroutine hand-offs. On a loaded
// host a 6 ms kernel pass is often stretched by the vCPU being descheduled,
// which the median of such short requests mostly escapes, so scaling them
// by the cache kernel over-corrects: across seeds, cache-hit medians scaled
// that way spread up to three times as wide as unscaled ones. The serving
// workload therefore scales its cache-answered requests by a kernel of
// their own kind: the median request of the fleet's closed loop of clients
// posting to a net/http handler over loopback that answers a fixed body
// about the size of a job view. It too shares no code with the repository.

// refEchoSeconds is the median echo request on the reference machine.
const refEchoSeconds = 0.00007

// echoRequests is how many requests one echo pass sends.
const echoRequests = 128

// echoKernel is the echo server and its clients. Like calibrator it is
// used only between timed stretches.
type echoKernel struct {
	url    string
	srv    *http.Server
	served chan struct{} // closed when Serve returns
	hc     *http.Client
	lat    []float64
	last   float64
}

// echoBody stands in for a job view: JSON of about 2 KB.
var echoBody = []byte("[" + strings.Repeat(`{"name":"simulate","count":12345},`, 60) + "{}]")

func newEchoKernel() (*echoKernel, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k := &echoKernel{
		url:    "http://" + l.Addr().String() + "/",
		served: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
		lat: make([]float64, echoRequests),
	}
	k.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(echoBody)
	})}
	go func() {
		defer close(k.served)
		k.srv.Serve(l) // returns http.ErrServerClosed once close runs
	}()
	if _, err := k.kernel(); err != nil { // open the connections
		k.close()
		return nil, err
	}
	return k, nil
}

// kernel times one pass: the median request, in seconds.
func (k *echoKernel) kernel() (float64, error) {
	errs := make([]error, echoRequests)
	closedLoop(echoRequests, func(_, i int) {
		t0 := time.Now()
		resp, err := k.hc.Post(k.url, "application/json", strings.NewReader(`{"bench":"mcf"}`))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		k.lat[i], errs[i] = time.Since(t0).Seconds(), err
	})
	return median(k.lat), errors.Join(errs...)
}

// mark times a pass right before a timed stretch.
func (k *echoKernel) mark() (err error) {
	k.last, err = k.kernel()
	return err
}

// factor times a pass right after the stretch and returns what converts
// the stretch's host time into reference time.
func (k *echoKernel) factor() (float64, error) {
	now, err := k.kernel()
	return refEchoSeconds / ((k.last + now) / 2), err
}

func (k *echoKernel) close() {
	k.srv.Close()
	<-k.served
	k.hc.CloseIdleConnections()
}
