package engine

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"timekeeping/internal/trace"
)

// supplyMinRefs is the shortest call that generates its references on a
// second goroutine. Below it the goroutine's start and stop, and the
// chunks a short call never fills, cost more than the overlap saves: the
// sampling schedules' 512- and 2,048-reference windows read inline, while
// warm-ups, measurement windows and functional-warming stretches (30K
// references and up) take the supply.
const supplyMinRefs = 16384

// The supply hands references over in chunks of chunkRefs; supplyChunks
// of them circulate between the two goroutines, so the producer runs at
// most that many chunks ahead of the stepping loop.
const (
	chunkRefs    = 1024
	supplyChunks = 4
)

// Sub-batches start at multiples of touchBatch from the call's start, and
// chunks at multiples of chunkRefs, so no sub-batch straddles two chunks
// and a short take means the supply has ended. The array type below fails
// to compile when either size stops being a multiple of touchBatch.
var _ [0]struct{} = [chunkRefs%touchBatch + batchRefs%touchBatch]struct{}{}

// busy counts the threads engine calls keep busy in this process: one per
// call in progress, long or short, and one per live producer. A long call
// starts a producer only if that keeps busy within GOMAXPROCS, that is
// while a P is free for it. So a lone simulation generates its references
// beside its stepping loop, while GOMAXPROCS simulations at once (an
// experiment sweep, a segmented run with a worker per P, a busy service)
// and every call at GOMAXPROCS=1 read inline: a producer with no P of its
// own only takes turns with the stepping loop and adds its hand-over
// costs. Threads outside the engine, and other processes, are not counted.
var busy atomic.Int32

// claimCore counts a producer into busy if a P is free for it, and
// reports whether it did. The caller's own call is already counted.
func claimCore() bool {
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		b := busy.Load()
		if b >= procs {
			return false
		}
		if busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

// chunk is one hand-over unit: refs[:n] are consecutive stream references.
// Every chunk but a call's last is full, so n < chunkRefs marks the last.
type chunk struct {
	refs [chunkRefs]trace.Ref
	n    int
}

// supply generates one call's references on a producer goroutine. The
// producer owns the stream and the chunks it is filling; the caller owns
// the chunk it is stepping and everything else. free and full carry the
// chunks between them and each can hold every chunk, so no send on them
// blocks. quit and done carry one token per call instead of being closed,
// so a supply is reused whole, channels included.
type supply struct {
	chunks     [supplyChunks]chunk
	free, full chan *chunk
	quit, done chan struct{}
	// broke is set when Next panicked or ended the producer's goroutine
	// (runtime.Goexit); panicked is what it panicked with, nil for a
	// Goexit, and stack the producer's stack at the time. The producer
	// writes them before it sends its last chunk, and the caller reads
	// them after receiving it.
	broke    bool
	panicked any
	stack    []byte

	cur *chunk // the chunk the caller is stepping, nil before the first
	pos int    // cur's next unread reference
}

// supplies keeps finished supplies, about 100 KB of chunks each, for the
// next long call of any engine: a service request builds a fresh engine,
// and would otherwise allocate a ring for it.
var supplies = sync.Pool{New: func() any {
	return &supply{
		free: make(chan *chunk, supplyChunks),
		full: make(chan *chunk, supplyChunks),
		quit: make(chan struct{}, 1),
		done: make(chan struct{}, 1),
	}
}}

// startSupply starts a producer that reads exactly n references from s,
// fewer if s ends first, or returns nil when the call should read inline:
// it is shorter than supplyMinRefs, or no P is free for a producer.
func startSupply(s trace.Stream, n uint64) *supply {
	if n < supplyMinRefs || !claimCore() {
		return nil
	}
	p := supplies.Get().(*supply)
	for i := range p.chunks {
		p.free <- &p.chunks[i]
	}
	go p.produce(s, n)
	return p
}

// produce fills free chunks from s and hands them to the caller in stream
// order, until it has read n references, s ends, Next panics or ends the
// goroutine, or the caller quits.
func (p *supply) produce(s trace.Stream, n uint64) {
	var c *chunk
	filled := false // the loop ended rather than unwound
	defer func() {
		if !filled {
			// Next panicked or called runtime.Goexit; c holds the
			// references before it, so c.n < chunkRefs.
			p.broke, p.panicked, p.stack = true, recover(), debug.Stack()
			p.full <- c
		}
		busy.Add(-1)
		p.done <- struct{}{}
	}()
fill:
	for n > 0 {
		// A quit token wins over a free chunk, which one select would
		// choose between at random.
		select {
		case <-p.quit:
			break fill
		default:
		}
		select {
		case c = <-p.free:
		case <-p.quit:
			break fill
		}
		want := n
		if want > chunkRefs {
			want = chunkRefs
		}
		c.n = 0
		for uint64(c.n) < want && s.Next(&c.refs[c.n]) {
			c.n++
		}
		n -= uint64(c.n)
		p.full <- c
		if c.n < chunkRefs {
			break // s ended, or this was the call's last chunk
		}
	}
	filled = true
}

// take returns the next up to want references, fewer only when the supply
// has ended. The slice stays valid until the next take. Where Next panicked
// or ended its goroutine, take does the same on the caller's goroutine, at
// the sub-batch whose read it broke, as an inline read would have.
func (p *supply) take(want int) []trace.Ref {
	if p.cur == nil || p.pos == chunkRefs {
		if p.cur != nil {
			p.free <- p.cur
		}
		p.cur, p.pos = <-p.full, 0
	}
	end := p.pos + want
	if end > p.cur.n {
		// Only the last chunk comes up short.
		if p.broke {
			p.rethrow()
		}
		end = p.cur.n
	}
	refs := p.cur.refs[p.pos:end]
	p.pos = end
	return refs
}

// rethrow repeats on the caller's goroutine what Next did on the
// producer's: runtime.Goexit, or the same panic, after printing the
// producer's stack, which the new panic's trace does not show.
func (p *supply) rethrow() {
	if p.panicked == nil {
		runtime.Goexit()
	}
	fmt.Fprintf(os.Stderr, "engine: reference stream panicked on the supply goroutine: %v\n\n%s\n", p.panicked, p.stack)
	panic(p.panicked)
}

// stop ends the call's supply, cancelled, panicking or done: it tells the
// producer to quit, waits until it has stopped reading the stream, and
// returns the supply to the pool cleared, with every chunk back in hand.
func (p *supply) stop() {
	p.quit <- struct{}{}
	<-p.done
	for len(p.full) > 0 {
		<-p.full
	}
	for len(p.free) > 0 {
		<-p.free
	}
	select {
	case <-p.quit: // the producer had already finished
	default:
	}
	p.broke, p.panicked, p.stack, p.cur, p.pos = false, nil, nil, nil, 0
	supplies.Put(p)
}
