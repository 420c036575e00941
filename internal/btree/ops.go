package btree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/page"
)

// Tree operations work on node pages in place: a descent binary-searches
// each internal node's layout under a read latch, and a leaf edit shifts
// the entries after the edit point with one copy under the write latch.
// No node is decoded into slices on the hot paths; only splits build a
// scratch image, and only CheckInvariants decodes whole nodes.

// cmpAt compares the entry stored at byte offset off of a node page with
// e, in (K1, K2, Val) order: -1, 0 or +1.
func cmpAt(d []byte, off int, e Entry) int {
	if k := binary.LittleEndian.Uint64(d[off:]); k != e.Key.K1 {
		return cmpU64(k, e.Key.K1)
	}
	if k := binary.LittleEndian.Uint64(d[off+8:]); k != e.Key.K2 {
		return cmpU64(k, e.Key.K2)
	}
	return cmpU64(binary.LittleEndian.Uint64(d[off+16:]), e.Val)
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// leafSearch returns the first index of a leaf page whose entry is ≥ e.
func leafSearch(d []byte, e Entry) int {
	lo, hi := 0, nodeCount(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpAt(d, nodeHeader+mid*leafEntrySize, e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childSearch picks the descent child of an internal page for e: the
// last separator ≤ e, or -1 for the leftmost child.
func childSearch(d []byte, e Entry) int {
	lo, hi := 0, nodeCount(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpAt(d, nodeHeader+mid*intEntrySize, e) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// childAt returns the page of child i of an internal page (-1 is the
// leftmost child).
func childAt(d []byte, i int) uint32 {
	if i < 0 {
		return nodeLink(d)
	}
	return binary.LittleEndian.Uint32(d[nodeHeader+i*intEntrySize+24:])
}

// openGap shifts entries [pos, n) of a node one slot right, making room
// for a new entry at pos.
func openGap(d []byte, size, n, pos int) {
	off := nodeHeader + pos*size
	copy(d[off+size:nodeHeader+(n+1)*size], d[off:nodeHeader+n*size])
}

// leafFor descends from the root to the leaf that holds (or would hold)
// e and returns it pinned but unlatched. path, when non-nil, collects
// the internal pages visited (root first) for split propagation.
func (t *Tree) leafFor(e Entry, path []uint32) (*buffer.Frame, []uint32, error) {
	pn, err := t.rootPage()
	if err != nil {
		return nil, path, err
	}
	for {
		f, err := t.pool.Get(t.rel, pn)
		if err != nil {
			return nil, path, err
		}
		f.RLock()
		d := f.Data
		kind := nodeKind(d)
		var next uint32
		if kind == kindInternal {
			next = childAt(d, childSearch(d, e))
		}
		f.RUnlock()
		switch kind {
		case kindLeaf:
			return f, path, nil
		case kindInternal:
			t.pool.Release(f, false)
			if path != nil {
				path = append(path, pn)
			}
			pn = next
		default:
			t.pool.Release(f, false)
			return nil, path, fmt.Errorf("btree: page %d has bad node kind %d", pn, kind)
		}
	}
}

// Insert adds entry e. It reports whether the entry was added (false if
// the exact entry already existed, making Insert idempotent).
func (t *Tree) Insert(e Entry) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	var pathBuf [8]uint32
	f, path, err := t.leafFor(e, pathBuf[:0])
	if err != nil {
		return false, err
	}
	leafPN := f.Key.Page
	f.Lock()
	d := f.Data
	n := nodeCount(d)
	pos := leafSearch(d, e)
	if pos < n && cmpAt(d, nodeHeader+pos*leafEntrySize, e) == 0 {
		f.Unlock()
		t.pool.Release(f, false)
		return false, nil
	}
	if n < maxLeafEntries {
		openGap(d, leafEntrySize, n, pos)
		putLeafEntry(d, pos, e)
		setNodeCount(d, n+1)
		f.Unlock()
		t.pool.Release(f, true)
		return true, nil
	}
	f.Unlock()

	// Split the leaf: the upper half of the n+1 entries moves to a new
	// right sibling.
	rf, rightPN, err := t.pool.NewPage(t.rel)
	if err != nil {
		t.pool.Release(f, false)
		return false, err
	}
	f.Lock()
	rf.Lock()
	var tmp [page.Size + leafEntrySize]byte
	spill(tmp[:], d, leafEntrySize, n, pos)
	putLeafEntry(tmp[:], pos, e)
	mid := (n + 1) / 2
	r := rf.Data
	r[0] = kindLeaf
	setNodeLink(r, nodeLink(d))
	moveHalves(d, r, tmp[:], leafEntrySize, n+1, mid, mid)
	setNodeLink(d, rightPN)
	sep := leafEntry(r, 0)
	rf.Unlock()
	f.Unlock()
	t.pool.Release(rf, true)
	t.pool.Release(f, true)

	// Propagate the separator up the path.
	childPN := rightPN
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		grown, err := t.insertSeparator(path[lvl], &sep, &childPN)
		if err != nil || !grown {
			return true, err
		}
	}

	// The root itself split: grow the tree by one level.
	root := leafPN
	if len(path) > 0 {
		root = path[0]
	}
	nf, rootPN, err := t.pool.NewPage(t.rel)
	if err != nil {
		return true, err
	}
	nf.Lock()
	nd := nf.Data
	nd[0] = kindInternal
	setNodeLink(nd, root)
	putIntEntry(nd, 0, sep, childPN)
	setNodeCount(nd, 1)
	nf.Unlock()
	t.pool.Release(nf, true)
	return true, t.setRoot(rootPN)
}

// insertSeparator adds (sep, child) to internal page pn. When the page
// is full it splits, the middle entry is promoted, sep and child are
// replaced by the promoted separator and the new right page, and grown
// reports that the caller must insert them one level up.
func (t *Tree) insertSeparator(pn uint32, sep *Entry, child *uint32) (grown bool, err error) {
	f, err := t.pool.Get(t.rel, pn)
	if err != nil {
		return false, err
	}
	f.Lock()
	d := f.Data
	n := nodeCount(d)
	pos := childSearch(d, *sep) + 1
	if n < maxIntEntries {
		openGap(d, intEntrySize, n, pos)
		putIntEntry(d, pos, *sep, *child)
		setNodeCount(d, n+1)
		f.Unlock()
		t.pool.Release(f, true)
		return false, nil
	}
	f.Unlock()
	rf, rightPN, err := t.pool.NewPage(t.rel)
	if err != nil {
		t.pool.Release(f, false)
		return false, err
	}
	f.Lock()
	rf.Lock()
	var tmp [page.Size + leafEntrySize]byte
	spill(tmp[:], d, intEntrySize, n, pos)
	putIntEntry(tmp[:], pos, *sep, *child)
	imid := (n + 1) / 2
	promoted, promotedChild := intEntry(tmp[:], imid)
	r := rf.Data
	r[0] = kindInternal
	setNodeLink(r, promotedChild)
	moveHalves(d, r, tmp[:], intEntrySize, n+1, imid, imid+1)
	rf.Unlock()
	f.Unlock()
	t.pool.Release(rf, true)
	t.pool.Release(f, true)
	*sep, *child = promoted, rightPN
	return true, nil
}

// spill copies the n entries of a full node into tmp with a gap at pos
// for the entry being inserted.
func spill(tmp, d []byte, size, n, pos int) {
	cut := nodeHeader + pos*size
	copy(tmp[nodeHeader:cut], d[nodeHeader:cut])
	copy(tmp[cut+size:nodeHeader+(n+1)*size], d[cut:nodeHeader+n*size])
}

// moveHalves distributes the total entries staged in tmp: [0, keep) stay
// on the left page d, [from, total) go to the empty right page r. The
// left page's vacated tail is zeroed.
func moveHalves(d, r, tmp []byte, size, total, keep, from int) {
	copy(d[nodeHeader:], tmp[nodeHeader:nodeHeader+keep*size])
	clear(d[nodeHeader+keep*size:])
	setNodeCount(d, keep)
	copy(r[nodeHeader:], tmp[nodeHeader+from*size:nodeHeader+total*size])
	setNodeCount(r, total-from)
}

// Delete removes the exact entry e. Underfull nodes are left in place
// (deletes come only from the vacuum cleaner, and lazy deletion keeps
// the tree simple, as in many production B-trees).
func (t *Tree) Delete(e Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	f, _, err := t.leafFor(e, nil)
	if err != nil {
		return err
	}
	f.Lock()
	d := f.Data
	n := nodeCount(d)
	pos := leafSearch(d, e)
	if pos >= n || cmpAt(d, nodeHeader+pos*leafEntrySize, e) != 0 {
		f.Unlock()
		t.pool.Release(f, false)
		return ErrNotFound
	}
	off := nodeHeader + pos*leafEntrySize
	end := nodeHeader + n*leafEntrySize
	copy(d[off:], d[off+leafEntrySize:end])
	clear(d[end-leafEntrySize : end])
	setNodeCount(d, n-1)
	f.Unlock()
	t.pool.Release(f, true)
	return nil
}

// ascendBatch is how many leaf entries Ascend copies out per latch
// hold. Callbacks run with the leaf pinned but unlatched, so they may use
// the buffer pool (and other trees) freely.
const ascendBatch = 64

// Ascend calls fn for every entry ≥ start (ordered), until fn returns
// false.
func (t *Tree) Ascend(start Key, fn func(Entry) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()

	lower := Entry{Key: start}
	f, _, err := t.leafFor(lower, nil)
	if err != nil {
		return err
	}
	f.RLock()
	pos := leafSearch(f.Data, lower)
	f.RUnlock()
	var buf [ascendBatch]Entry
	for {
		// The tree lock is held shared, so no writer moves the entries
		// while the latch is dropped for the callbacks.
		f.RLock()
		d := f.Data
		n, next, k := nodeCount(d), nodeLink(d), 0
		for ; pos < n && k < len(buf); pos++ {
			buf[k] = leafEntry(d, pos)
			k++
		}
		f.RUnlock()
		for _, e := range buf[:k] {
			if !fn(e) {
				t.pool.Release(f, false)
				return nil
			}
		}
		if pos < n {
			continue
		}
		t.pool.Release(f, false)
		if next == 0 {
			return nil
		}
		if f, err = t.pool.Get(t.rel, next); err != nil {
			return err
		}
		pos = 0
		f.RLock()
		kind := nodeKind(f.Data)
		f.RUnlock()
		if kind != kindLeaf {
			t.pool.Release(f, false)
			return fmt.Errorf("btree: page %d has bad node kind %d", next, kind)
		}
	}
}

// Lookup calls fn for every entry whose key equals k.
func (t *Tree) Lookup(k Key, fn func(Entry) bool) error {
	return t.Ascend(k, func(e Entry) bool {
		if e.Key != k {
			return false
		}
		return fn(e)
	})
}

// Len counts all entries (test helper; O(n)).
func (t *Tree) Len() (int, error) {
	total := 0
	err := t.Ascend(Key{}, func(Entry) bool { total++; return true })
	return total, err
}

// nodeMem is a decoded image of one node, for the invariant checker.
type nodeMem struct {
	kind byte
	link uint32 // leaf: right sibling; internal: leftmost child
	leaf []Entry
	ints []intChild
}

type intChild struct {
	e     Entry
	child uint32
}

func (t *Tree) readNode(pn uint32) (nodeMem, error) {
	f, err := t.pool.Get(t.rel, pn)
	if err != nil {
		return nodeMem{}, err
	}
	defer t.pool.Release(f, false)
	f.RLock()
	defer f.RUnlock()
	d := f.Data
	n := nodeMem{kind: nodeKind(d), link: nodeLink(d)}
	cnt := nodeCount(d)
	switch n.kind {
	case kindLeaf:
		if cnt > maxLeafEntries {
			return nodeMem{}, fmt.Errorf("btree: leaf %d holds %d entries", pn, cnt)
		}
		n.leaf = make([]Entry, cnt)
		for i := range n.leaf {
			n.leaf[i] = leafEntry(d, i)
		}
	case kindInternal:
		if cnt > maxIntEntries {
			return nodeMem{}, fmt.Errorf("btree: internal %d holds %d entries", pn, cnt)
		}
		n.ints = make([]intChild, cnt)
		for i := range n.ints {
			e, c := intEntry(d, i)
			n.ints[i] = intChild{e, c}
		}
	default:
		return nodeMem{}, fmt.Errorf("btree: page %d has bad node kind %d", pn, n.kind)
	}
	return n, nil
}

// CheckInvariants walks the tree verifying ordering and separator
// correctness; tests call it after randomised workloads.
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	root, err := t.rootPage()
	if err != nil {
		return err
	}
	_, _, err = t.check(root, nil, nil)
	return err
}

// check verifies the subtree at pn lies within (lo, hi]; it returns the
// subtree's min and max entries.
func (t *Tree) check(pn uint32, lo, hi *Entry) (minE, maxE *Entry, err error) {
	n, err := t.readNode(pn)
	if err != nil {
		return nil, nil, err
	}
	bound := func(e Entry) error {
		if lo != nil && e.Less(*lo) {
			return fmt.Errorf("btree: entry %v below bound %v on page %d", e, *lo, pn)
		}
		if hi != nil && !e.Less(*hi) {
			return fmt.Errorf("btree: entry %v not below bound %v on page %d", e, *hi, pn)
		}
		return nil
	}
	if n.kind == kindLeaf {
		for i, e := range n.leaf {
			if err := bound(e); err != nil {
				return nil, nil, err
			}
			if i > 0 && !n.leaf[i-1].Less(e) {
				return nil, nil, fmt.Errorf("btree: leaf %d out of order at %d", pn, i)
			}
		}
		if len(n.leaf) == 0 {
			return nil, nil, nil
		}
		return &n.leaf[0], &n.leaf[len(n.leaf)-1], nil
	}
	for i, ic := range n.ints {
		if i > 0 && !n.ints[i-1].e.Less(ic.e) {
			return nil, nil, fmt.Errorf("btree: internal %d separators out of order", pn)
		}
	}
	childLo := lo
	for i := -1; i < len(n.ints); i++ {
		var child uint32
		var childHi *Entry
		if i < 0 {
			child = n.link
		} else {
			child = n.ints[i].child
			childLo = &n.ints[i].e
		}
		if i+1 < len(n.ints) {
			childHi = &n.ints[i+1].e
		} else {
			childHi = hi
		}
		mn, _, err := t.check(child, childLo, childHi)
		if err != nil {
			return nil, nil, err
		}
		if i >= 0 && mn != nil && mn.Less(n.ints[i].e) {
			return nil, nil, fmt.Errorf("btree: separator %v above child min %v", n.ints[i].e, *mn)
		}
	}
	return nil, nil, nil
}
