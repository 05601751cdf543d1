package engine

import "timekeeping/internal/classify"

// soaClassifier is the struct-of-arrays counterpart of
// classify.Classifier: the same fully-associative LRU shadow cache, with
// the pointer-chased node list replaced by intrusive prev/next index
// arrays and the two Go maps replaced by open-addressed tables (the
// resident map bounded with backward-shift deletion, the seen set
// insert-only and growable). It produces the same MissKind for every
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

	seen seenSet
}

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
	}
	for i := range c.free {
		c.free[i] = int32(blocks - 1 - i)
	}
	for i := range c.mEnt {
		c.mEnt[i].node = nilNode
	}
	c.seen.init(1 << 14)
	return c
}

// clone returns an independent copy: the seen set and the shadow cache's
// exact LRU order duplicate, like classify.Classifier.Clone.
func (c *soaClassifier) clone() *soaClassifier {
	d := *c
	d.nBlock = append([]uint64(nil), c.nBlock...)
	d.nPrev = append([]int32(nil), c.nPrev...)
	d.nNext = append([]int32(nil), c.nNext...)
	d.free = append([]int32(nil), c.free...)
	d.mEnt = append([]mapEnt(nil), c.mEnt...)
	d.seen.keys = append([]uint64(nil), c.seen.keys...)
	return &d
}

// access transcribes classify.Classifier.Access.
func (c *soaClassifier) access(block uint64) classify.MissKind {
	if n := c.find(block); n != nilNode {
		c.moveToFront(n)
		return classify.Conflict
	}
	kind := classify.Capacity
	if !c.seen.has(block) {
		kind = classify.Cold
		c.seen.add(block)
	}
	c.insert(block)
	return kind
}

// warm transcribes classify.Classifier.Warm: the functional-warming cold
// check, which marks the block seen without touching the shadow cache.
func (c *soaClassifier) warm(block uint64) (cold bool) {
	if c.seen.has(block) {
		return false
	}
	c.seen.add(block)
	return true
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
	i := hashBlock(block) & c.mMask
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
	i := hashBlock(block) & c.mMask
	for c.mEnt[i].node != nilNode {
		i = (i + 1) & c.mMask
	}
	c.mEnt[i] = mapEnt{block: block, node: n}
}

// mapDelete removes block using backward-shift deletion, which keeps
// probe chains gap-free without tombstones.
func (c *soaClassifier) mapDelete(block uint64) {
	i := hashBlock(block) & c.mMask
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
			home := hashBlock(c.mEnt[j].block) & c.mMask
			// Move j down to i unless j's home lies cyclically in (i, j].
			if (j-home)&c.mMask >= (j-i)&c.mMask {
				c.mEnt[i] = c.mEnt[j]
				i = j
				break
			}
		}
	}
}

// hashBlock mixes a block-aligned address into a table index.
func hashBlock(block uint64) uint64 {
	x := block * 0x9e3779b97f4a7c15
	return x ^ x>>32
}

// seenSet is an insert-only open-addressed set of block addresses. A
// zero key marks an empty slot so a probe touches one array; block 0
// (a valid member) is tracked out of band.
type seenSet struct {
	keys []uint64 // 0 = empty slot
	has0 bool
	mask uint64
	n    int
}

func (s *seenSet) init(capacity int) {
	c := 16
	for c < capacity {
		c <<= 1
	}
	s.keys = make([]uint64, c)
	s.mask = uint64(c - 1)
	s.n = 0
}

func (s *seenSet) has(block uint64) bool {
	if block == 0 {
		return s.has0
	}
	i := hashBlock(block) & s.mask
	for {
		k := s.keys[i]
		if k == 0 {
			return false
		}
		if k == block {
			return true
		}
		i = (i + 1) & s.mask
	}
}

func (s *seenSet) add(block uint64) {
	if block == 0 {
		s.has0 = true
		return
	}
	if s.n >= len(s.keys)-len(s.keys)/4 {
		s.grow()
	}
	i := hashBlock(block) & s.mask
	for s.keys[i] != 0 {
		if s.keys[i] == block {
			return
		}
		i = (i + 1) & s.mask
	}
	s.keys[i] = block
	s.n++
}

func (s *seenSet) grow() {
	old := s.keys
	has0 := s.has0
	s.init(len(old) * 2)
	s.has0 = has0
	for _, k := range old {
		if k == 0 {
			continue
		}
		j := hashBlock(k) & s.mask
		for s.keys[j] != 0 {
			j = (j + 1) & s.mask
		}
		s.keys[j] = k
		s.n++
	}
}
