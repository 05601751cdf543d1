// Package classify implements Hill's canonical three-way miss
// classification (cold / conflict / capacity) by running a fully-associative
// LRU shadow cache of the same capacity alongside the real cache:
//
//   - a miss to a block never seen before is a cold miss;
//   - a miss that would have hit in the fully-associative cache is a
//     conflict miss (it was evicted only because of its mapping);
//   - a miss that also misses in the fully-associative cache is a capacity
//     miss.
//
// The paper uses this classification as ground truth when measuring how
// well the timekeeping metrics predict miss types (Figures 2 and 7-11).
package classify

// MissKind is the Hill classification of a miss.
type MissKind uint8

// Miss kinds.
const (
	// Hit means the access was not a miss at all.
	Hit MissKind = iota
	// Cold is the first-ever access to a block.
	Cold
	// Conflict would have hit in a fully-associative cache of the same
	// capacity.
	Conflict
	// Capacity misses even in the fully-associative cache.
	Capacity
	// Unclassified is a non-cold miss observed on a path that does not
	// maintain the shadow cache (functional warming), so the
	// conflict-vs-capacity question has no answer.
	Unclassified
)

// NumKinds is the number of MissKind values, for arrays indexed by kind.
const NumKinds = int(Unclassified) + 1

// String returns the kind's name.
func (k MissKind) String() string {
	switch k {
	case Hit:
		return "hit"
	case Cold:
		return "cold"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Unclassified:
		return "unclassified"
	default:
		return "invalid"
	}
}

// node is a doubly-linked LRU list node holding one block.
type node struct {
	block      uint64
	prev, next *node
}

// Classifier tracks the fully-associative shadow cache. Feed it every
// access (block-aligned) the real cache sees, in the same order.
type Classifier struct {
	capacity int
	blocks   map[uint64]*node
	seen     map[uint64]struct{}
	head     *node // most recently used
	tail     *node // least recently used
	free     []*node
}

// New returns a classifier whose shadow cache holds `blocks` blocks — the
// real cache's capacity in blocks.
func New(blocks int) *Classifier {
	if blocks < 1 {
		panic("classify: capacity must be >= 1")
	}
	return &Classifier{
		capacity: blocks,
		blocks:   make(map[uint64]*node, blocks),
		seen:     make(map[uint64]struct{}),
	}
}

// Clone returns an independent copy of the classifier: the seen set and
// the shadow cache's exact LRU order are duplicated, so the clone answers
// identically to the original for any subsequent access sequence.
func (c *Classifier) Clone() *Classifier {
	d := New(c.capacity)
	for block := range c.seen {
		d.seen[block] = struct{}{}
	}
	// Rebuild the LRU list from least to most recently used: push-fronting
	// in tail→head order reproduces the original ordering exactly.
	for n := c.tail; n != nil; n = n.prev {
		nn := &node{block: n.block}
		d.blocks[nn.block] = nn
		d.pushFront(nn)
	}
	return d
}

// Access records an access to the block (block-aligned address) and
// returns what a miss at this point would be classified as. The caller
// decides whether the real cache actually missed; the classifier's answer
// is only meaningful for misses, but the shadow cache must still observe
// every access to stay in sync.
func (c *Classifier) Access(block uint64) MissKind {
	if n, ok := c.blocks[block]; ok {
		c.moveToFront(n)
		return Conflict // present in FA cache: a real-cache miss is a conflict
	}
	kind := Capacity
	if _, ok := c.seen[block]; !ok {
		kind = Cold
		c.seen[block] = struct{}{}
	}
	c.insert(block)
	return kind
}

// Warm marks the block as seen without touching the shadow cache, and
// reports whether it was cold (never referenced before). This is the
// cut-price path functional warming (internal/sample) uses on L1 misses:
// the cold/not-cold verdict stays exact — the seen set is append-only and
// every block's first touch is an L1 miss — while the shadow cache's LRU
// order goes stale, so conflict-vs-capacity splits in the detailed
// windows right after a warming phase are approximate.
func (c *Classifier) Warm(block uint64) (cold bool) {
	if _, ok := c.seen[block]; ok {
		return false
	}
	c.seen[block] = struct{}{}
	return true
}

// Contains reports whether the shadow cache currently holds the block.
func (c *Classifier) Contains(block uint64) bool {
	_, ok := c.blocks[block]
	return ok
}

// Len returns the number of blocks currently resident in the shadow cache.
func (c *Classifier) Len() int { return len(c.blocks) }

func (c *Classifier) insert(block uint64) {
	if len(c.blocks) >= c.capacity {
		// Evict LRU.
		lru := c.tail
		c.unlink(lru)
		delete(c.blocks, lru.block)
		c.free = append(c.free, lru)
	}
	var n *node
	if len(c.free) > 0 {
		n = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		*n = node{block: block}
	} else {
		n = &node{block: block}
	}
	c.blocks[block] = n
	c.pushFront(n)
}

func (c *Classifier) pushFront(n *node) {
	n.next = c.head
	n.prev = nil
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Classifier) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Classifier) moveToFront(n *node) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
