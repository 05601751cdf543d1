package engine

import (
	"timekeeping/internal/classify"
	"timekeeping/internal/hashtab"
)

// soaClassifier is the struct-of-arrays counterpart of
// classify.Classifier: the same fully-associative LRU shadow cache, with
// the pointer-chased node list replaced by intrusive prev/next index
// arrays and the two Go maps replaced by open-addressed tables (the
// resident map bounded with backward-shift deletion, the seen set an
// insert-only hashtab.Table). It produces the same MissKind for every
// access by construction.
type soaClassifier struct {
	capacity int

	// Intrusive LRU list over node indices.
	nBlock []uint64
	nPrev  []int32
	nNext  []int32
	head   int32
	tail   int32
	free   []int32
	nLive  int

	// Open-addressed block -> node index map (linear probing, backward-
	// shift deletion). Sized 4x capacity so probes stay short; key and
	// value share an entry so a probe reads one cache line.
	mEnt  []mapEnt
	mMask uint64

	// seen holds every block ever classified or warmed. It allocates its
	// slots on first insert, so a classifier whose engine takes over a
	// finished one's set (Engine.TakeSeenSet) allocates none, and its
	// first grow goes to the size that holds the blocks the run is
	// expected to touch (Engine.ExpectBlocks).
	seen hashtab.Table[struct{}]
}

// seenInitial is the seen set's first size in slots. It holds 12,288
// blocks under 3/4 load, more than the 11.1K that 25K references of any
// benchmark bench touch (mcf's), so a short run never grows its set; a
// longer one grows it once, to the size ExpectBlocks names.
const seenInitial = 1 << 14

const nilNode = int32(-1)

// mapEnt is one resident-map slot; node == nilNode marks it empty.
type mapEnt struct {
	block uint64
	node  int32
}

func newSoaClassifier(blocks int) *soaClassifier {
	if blocks < 1 {
		panic("engine: classifier capacity must be >= 1")
	}
	tbl := 64
	for tbl < 4*blocks {
		tbl <<= 1
	}
	c := &soaClassifier{
		capacity: blocks,
		nBlock:   make([]uint64, blocks),
		nPrev:    make([]int32, blocks),
		nNext:    make([]int32, blocks),
		head:     nilNode,
		tail:     nilNode,
		free:     make([]int32, blocks),
		mEnt:     make([]mapEnt, tbl),
		mMask:    uint64(tbl - 1),
		seen:     hashtab.New[struct{}](seenInitial),
	}
	for i := range c.free {
		c.free[i] = int32(blocks - 1 - i)
	}
	for i := range c.mEnt {
		c.mEnt[i].node = nilNode
	}
	return c
}

// access transcribes classify.Classifier.Access.
func (c *soaClassifier) access(block uint64) classify.MissKind {
	if n := c.find(block); n != nilNode {
		c.moveToFront(n)
		return classify.Conflict
	}
	kind := classify.Capacity
	if _, _, added := c.seen.Put(block); added {
		kind = classify.Cold
	}
	c.insert(block)
	return kind
}

// warm transcribes classify.Classifier.Warm: the functional-warming cold
// check, which marks the block seen without touching the shadow cache.
func (c *soaClassifier) warm(block uint64) (cold bool) {
	_, _, cold = c.seen.Put(block)
	return cold
}

func (c *soaClassifier) insert(block uint64) {
	if c.nLive >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		c.mapDelete(c.nBlock[lru])
		c.free = append(c.free, lru)
		c.nLive--
	}
	n := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.nBlock[n] = block
	c.nLive++
	c.mapPut(block, n)
	c.pushFront(n)
}

func (c *soaClassifier) pushFront(n int32) {
	c.nNext[n] = c.head
	c.nPrev[n] = nilNode
	if c.head != nilNode {
		c.nPrev[c.head] = n
	}
	c.head = n
	if c.tail == nilNode {
		c.tail = n
	}
}

func (c *soaClassifier) unlink(n int32) {
	if c.nPrev[n] != nilNode {
		c.nNext[c.nPrev[n]] = c.nNext[n]
	} else {
		c.head = c.nNext[n]
	}
	if c.nNext[n] != nilNode {
		c.nPrev[c.nNext[n]] = c.nPrev[n]
	} else {
		c.tail = c.nPrev[n]
	}
	c.nPrev[n], c.nNext[n] = nilNode, nilNode
}

func (c *soaClassifier) moveToFront(n int32) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// find returns the node index for block, or nilNode.
func (c *soaClassifier) find(block uint64) int32 {
	i := hashtab.Hash(block) & c.mMask
	for {
		e := &c.mEnt[i]
		if e.node == nilNode {
			return nilNode
		}
		if e.block == block {
			return e.node
		}
		i = (i + 1) & c.mMask
	}
}

func (c *soaClassifier) mapPut(block uint64, n int32) {
	i := hashtab.Hash(block) & c.mMask
	for c.mEnt[i].node != nilNode {
		i = (i + 1) & c.mMask
	}
	c.mEnt[i] = mapEnt{block: block, node: n}
}

// mapDelete removes block using backward-shift deletion, which keeps
// probe chains gap-free without tombstones.
func (c *soaClassifier) mapDelete(block uint64) {
	i := hashtab.Hash(block) & c.mMask
	for {
		if c.mEnt[i].node == nilNode {
			return
		}
		if c.mEnt[i].block == block {
			break
		}
		i = (i + 1) & c.mMask
	}
	j := i
	for {
		c.mEnt[i].node = nilNode
		for {
			j = (j + 1) & c.mMask
			if c.mEnt[j].node == nilNode {
				return
			}
			home := hashtab.Hash(c.mEnt[j].block) & c.mMask
			// Move j down to i unless j's home lies cyclically in (i, j].
			if (j-home)&c.mMask >= (j-i)&c.mMask {
				c.mEnt[i] = c.mEnt[j]
				i = j
				break
			}
		}
	}
}
