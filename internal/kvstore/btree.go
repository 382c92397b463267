// Package kvstore implements the embedded key-value storage engine
// used as the local NoSQL substrate of the reproduction — the analog
// of the WiredTiger store (fronted by HTTP) that the paper's Tier 6
// experiments run against.
//
// The engine provides:
//
//   - an ordered index (an in-memory B-tree) supporting point gets,
//     range scans and full iteration (the CEW validation phase scans
//     every record);
//   - per-record versions with conditional put / delete (test-and-set
//     on the version, the ETag idiom of WAS and GCS) — the primitive
//     the client-coordinated transaction library builds on;
//   - an optional write-ahead log for durability with replay on open.
//
// Operations on single keys are linearizable. The store offers no
// multi-key transactions by itself; that is the transaction library's
// job (internal/txn).
package kvstore

import "strings"

// btreeMinDegree is the B-tree minimum degree t: every node except
// the root holds between t-1 and 2t-1 keys.
const btreeMinDegree = 32

// maxTreeDepth bounds the path a write records: a tree of depth d
// holds at least 2·t^(d-1) − 1 keys, so at t = 32 depth 14 would take
// more than 2^63 of them.
const maxTreeDepth = 14

// node is one B-tree node: keys in order, vals[i] the record stored
// under keys[i], and, unless the node is a leaf, len(keys)+1 children.
// A node is never written once a root reaches it, so a writer builds
// new nodes instead, and a new node may share any of its three slices
// with the node it replaces. Every slice's capacity is its length, so
// an append to one can never land in an array another node sees.
type node struct {
	keys     []string
	vals     []*VersionedRecord
	children []*node
	// _ makes a node 96 bytes. At 72 it shares the allocator's 80-byte
	// size class with VersionedRecord, and the nodes a load builds land
	// between its records: a 100-record scan of a freshly loaded table
	// (BenchmarkStoreScan/100) then ran about a fifth slower.
	_ [24]byte
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// find returns the position of key in n.keys, or the child index to
// descend into, and whether the key was found at that position.
func (n *node) find(key string) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == key
}

// btree is a B-tree mapping string keys to records, with a
// copy-on-write write path. put and delete descend once, recording the
// path, then rebuild it bottom-up: the node the write lands in copies
// the slice it changes, each ancestor copies only its children, and
// every other slice is shared with the node it replaces. The new root
// is installed in t.root; no node reachable from an earlier root is
// modified, so any root pointer obtained before stays a valid,
// immutable snapshot of the tree forever. The handle itself is not
// synchronized — the partition serializes writers — but a *node taken
// from t.root may be traversed concurrently with writes without any
// lock; superseded nodes are reclaimed by Go's garbage collector,
// which is why no epoch or hazard-pointer machinery is needed.
type btree struct {
	root *node
	size int
}

// pathStep is one internal node on a write's descent and the index of
// the child it descended into.
type pathStep struct {
	n *node
	i int
}

// depth returns the number of levels in the tree (≥ 1). Because every
// write builds one new node per level of its path, it is also the
// per-write retired-node estimate exported by the snapshot metrics.
func (t *btree) depth() int {
	d := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}

func newBTree() *btree {
	return &btree{root: &node{}}
}

// get returns the value stored under key, or nil.
func (t *btree) get(key string) *VersionedRecord {
	n := t.root
	for {
		i, ok := n.find(key)
		if ok {
			return n.vals[i]
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
}

// live counts a record toward the tree's size: tombstone heads keep
// the key in the index (for time-travel reads through the chain) but
// are not live records.
func live(v *VersionedRecord) int {
	if v == nil || v.deleted {
		return 0
	}
	return 1
}

// put stores val under key, replacing any existing value, and returns
// the value it replaced (nil when the key is new). The size tracks
// live records only, so installing or replacing tombstone heads
// adjusts it by the liveness delta. An overwrite copies only vals
// where the key is; an insert builds the leaf's keys and vals one
// longer and splits whatever overflows on the way back up.
func (t *btree) put(key string, val *VersionedRecord) *VersionedRecord {
	var path [maxTreeDepth]pathStep
	d := 0
	for n := t.root; ; d++ {
		i, found := n.find(key)
		if found {
			old := n.vals[i]
			t.root = rebuild(path[:d], &node{keys: n.keys, vals: with(n.vals, i, val), children: n.children})
			t.size += live(val) - live(old)
			return old
		}
		if n.leaf() {
			t.root = grow(path[:d], insertAt(n.keys, i, key), insertAt(n.vals, i, val))
			t.size += live(val)
			return nil
		}
		path[d] = pathStep{n, i}
		n = n.children[i]
	}
}

// rebuild returns the root of the tree in which c replaces the node
// path descends to: each ancestor copies only its children.
func rebuild(path []pathStep, c *node) *node {
	for d := len(path) - 1; d >= 0; d-- {
		p := path[d]
		c = &node{keys: p.n.keys, vals: p.n.vals, children: with(p.n.children, p.i, c)}
	}
	return c
}

// grow returns the root of the tree in which a leaf with keys and vals
// replaces the leaf path descends to. A node that overflows splits
// around its median, which moves up into a rebuilt parent, and a root
// that splits gains a new root above it.
func grow(path []pathStep, keys []string, vals []*VersionedRecord) *node {
	var children []*node
	for len(keys) == 2*btreeMinDegree {
		m := len(keys) / 2
		left := &node{keys: keys[:m:m], vals: vals[:m:m]}
		right := &node{keys: keys[m+1:], vals: vals[m+1:]}
		if children != nil {
			left.children, right.children = children[:m+1:m+1], children[m+1:]
		}
		if len(path) == 0 {
			return &node{keys: keys[m : m+1 : m+1], vals: vals[m : m+1 : m+1], children: []*node{left, right}}
		}
		p := path[len(path)-1]
		path = path[:len(path)-1]
		keys, vals = insertAt(p.n.keys, p.i, keys[m]), insertAt(p.n.vals, p.i, vals[m])
		children = insertAt(p.n.children, p.i+1, right)
		children[p.i] = left
	}
	return rebuild(path, &node{keys: keys, vals: vals, children: children})
}

// delete hard-removes key (chain and all) and reports whether it was
// present — used by legacy WAL replay and by Vacuum's purge of
// expired tombstoned keys; the live write path deletes by writing a
// tombstone head instead. A key held by an internal node is replaced
// there by its predecessor, which leaves its leaf instead. The leaf
// loses one entry, and on the way back up an underfull node borrows
// from or merges with a sibling; like put, the rebuilt path is
// installed in t.root and every previous root stays a valid snapshot.
func (t *btree) delete(key string) bool {
	var path [maxTreeDepth]pathStep
	d, hold := 0, -1
	n := t.root
	for ; !n.leaf(); d++ {
		i := len(n.keys) // below the held key, its predecessor is rightmost
		if hold < 0 {
			var found bool
			if i, found = n.find(key); found {
				hold = d
			}
		}
		path[d] = pathStep{n, i}
		n = n.children[i]
	}
	i := len(n.keys) - 1
	if hold < 0 {
		var found bool
		if i, found = n.find(key); !found {
			return false
		}
	}
	old := n.vals[i]
	if hold >= 0 {
		old = path[hold].n.vals[path[hold].i]
	}
	c := &node{keys: removeAt(n.keys, i), vals: removeAt(n.vals, i)}
	for d--; d >= 0; d-- {
		p := path[d]
		keys, vals := p.n.keys, p.n.vals
		if d == hold {
			keys, vals = with(keys, p.i, n.keys[i]), with(vals, p.i, n.vals[i])
		}
		c = rebalance(keys, vals, p.n.children, p.i, c)
	}
	if len(c.keys) == 0 && !c.leaf() {
		c = c.children[0]
	}
	t.root = c
	t.size -= live(old)
	return true
}

// rebalance returns the internal node with keys, vals and children in
// which c replaces child i. When c is underfull it takes an entry
// through the separator from a sibling that can spare one, or else
// merges with a sibling and the separator; the nodes that change are
// fresh, and a sibling that gives up an entry shares its arrays.
func rebalance(keys []string, vals []*VersionedRecord, children []*node, i int, c *node) *node {
	const t = btreeMinDegree
	if len(c.keys) >= t-1 {
		return &node{keys: keys, vals: vals, children: with(children, i, c)}
	}
	if i > 0 && len(children[i-1].keys) >= t {
		l := children[i-1]
		m := len(l.keys) - 1
		nc := &node{keys: insertAt(c.keys, 0, keys[i-1]), vals: insertAt(c.vals, 0, vals[i-1])}
		nl := &node{keys: l.keys[:m:m], vals: l.vals[:m:m]}
		if !c.leaf() {
			nc.children = insertAt(c.children, 0, l.children[m+1])
			nl.children = l.children[: m+1 : m+1]
		}
		kids := with(children, i, nc)
		kids[i-1] = nl
		return &node{keys: with(keys, i-1, l.keys[m]), vals: with(vals, i-1, l.vals[m]), children: kids}
	}
	if i < len(children)-1 && len(children[i+1].keys) >= t {
		r := children[i+1]
		nc := &node{keys: insertAt(c.keys, len(c.keys), keys[i]), vals: insertAt(c.vals, len(c.vals), vals[i])}
		nr := &node{keys: r.keys[1:], vals: r.vals[1:]}
		if !c.leaf() {
			nc.children = insertAt(c.children, len(c.children), r.children[0])
			nr.children = r.children[1:]
		}
		kids := with(children, i, nc)
		kids[i+1] = nr
		return &node{keys: with(keys, i, r.keys[0]), vals: with(vals, i, r.vals[0]), children: kids}
	}
	// Merge with the right sibling, or with the left one when c is last.
	l, r := c, (*node)(nil)
	if i < len(children)-1 {
		r = children[i+1]
	} else {
		i--
		l, r = children[i], c
	}
	m := &node{keys: concat(l.keys, keys[i:i+1], r.keys), vals: concat(l.vals, vals[i:i+1], r.vals)}
	if !c.leaf() {
		m.children = concat(l.children, r.children)
	}
	kids := removeAt(children, i+1)
	kids[i] = m
	return &node{keys: removeAt(keys, i), vals: removeAt(vals, i), children: kids}
}

// with returns a copy of s with v at i.
func with[T any](s []T, i int, v T) []T {
	c := make([]T, len(s))
	copy(c, s)
	c[i] = v
	return c
}

// insertAt returns a copy of s one longer, with v at i.
func insertAt[T any](s []T, i int, v T) []T {
	c := make([]T, len(s)+1)
	copy(c, s[:i])
	c[i] = v
	copy(c[i+1:], s[i:])
	return c
}

// removeAt returns a copy of s without s[i], nil when none is left.
func removeAt[T any](s []T, i int) []T {
	if len(s) == 1 {
		return nil
	}
	c := make([]T, len(s)-1)
	copy(c, s[:i])
	copy(c[i:], s[i+1:])
	return c
}

// concat returns the parts joined in one fresh slice.
func concat[T any](parts ...[]T) []T {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	c := make([]T, 0, n)
	for _, p := range parts {
		c = append(c, p...)
	}
	return c
}

// ascend visits every item with key ≥ start in order, until fn
// returns false.
func (t *btree) ascend(start string, fn func(key string, val *VersionedRecord) bool) {
	t.root.ascend(start, fn)
}

func (n *node) ascend(start string, fn func(string, *VersionedRecord) bool) bool {
	i, _ := n.find(start)
	for ; i < len(n.keys); i++ {
		if !n.leaf() && !n.children[i].ascend(start, fn) {
			return false
		}
		if n.keys[i] >= start && !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(start, fn)
	}
	return true
}

// check verifies the B-tree structural invariants (used by tests):
// sorted keys, one value per key, occupancy bounds, uniform depth, and
// no slice with room to append into. It returns a description of the
// first violation, or "".
func (t *btree) check() string {
	depth := -1
	var walk func(n *node, d int, lo, hi string, isRoot bool) string
	walk = func(n *node, d int, lo, hi string, isRoot bool) string {
		tt := btreeMinDegree
		if !isRoot && len(n.keys) < tt-1 {
			return "underfull node"
		}
		if len(n.keys) > 2*tt-1 {
			return "overfull node"
		}
		if len(n.vals) != len(n.keys) {
			return "value count mismatch"
		}
		if cap(n.keys) != len(n.keys) || cap(n.vals) != len(n.vals) || cap(n.children) != len(n.children) {
			return "slice with spare capacity"
		}
		for i, k := range n.keys {
			if i > 0 && n.keys[i-1] >= k {
				return "unsorted keys"
			}
			if lo != "" && k <= lo {
				return "item below subtree bound"
			}
			if hi != "" && k >= hi {
				return "item above subtree bound"
			}
		}
		if n.leaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return "leaves at different depths"
			}
			return ""
		}
		if len(n.children) != len(n.keys)+1 {
			return "child count mismatch"
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if msg := walk(c, d+1, clo, chi, false); msg != "" {
				return msg
			}
		}
		return ""
	}
	return walk(t.root, 0, "", "", true)
}

// compareKeys orders keys the way the store does (plain lexicographic
// byte order); exposed for documentation via tests.
func compareKeys(a, b string) int { return strings.Compare(a, b) }
