package btree

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// height reports the number of levels from the root down to the leaves.
func (t *Tree) height() (int, error) {
	pn, err := t.rootPage()
	if err != nil {
		return 0, err
	}
	for h := 1; ; h++ {
		n, err := t.readNode(pn)
		if err != nil {
			return 0, err
		}
		if n.kind == kindLeaf {
			return h, nil
		}
		pn = n.link
	}
}

// sortedModel is the reference the tree is checked against: a set of
// entries, sorted on demand.
type sortedModel struct {
	set    map[Entry]bool
	list   []Entry // every member, unordered (for picking deletion victims)
	sorted []Entry
	dirty  bool
}

func (m *sortedModel) insert(e Entry) bool {
	if m.set[e] {
		return false
	}
	m.set[e] = true
	m.list = append(m.list, e)
	m.dirty = true
	return true
}

func (m *sortedModel) remove(i int) Entry {
	e := m.list[i]
	m.list[i] = m.list[len(m.list)-1]
	m.list = m.list[:len(m.list)-1]
	delete(m.set, e)
	m.dirty = true
	return e
}

func (m *sortedModel) ascend(start Key, limit int) []Entry {
	if m.dirty {
		m.sorted = append(m.sorted[:0], m.list...)
		sort.Slice(m.sorted, func(i, j int) bool { return m.sorted[i].Less(m.sorted[j]) })
		m.dirty = false
	}
	lower := Entry{Key: start}
	i := sort.Search(len(m.sorted), func(i int) bool { return !m.sorted[i].Less(lower) })
	end := i + limit
	if end > len(m.sorted) {
		end = len(m.sorted)
	}
	return m.sorted[i:end]
}

func ascendN(t *testing.T, tr *Tree, start Key, limit int) []Entry {
	t.Helper()
	var got []Entry
	if err := tr.Ascend(start, func(e Entry) bool {
		got = append(got, e)
		return len(got) < limit
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// The in-place node edits against a sorted-slice model: random inserts
// (with duplicates), deletes and bounded ascends, over enough entries
// to split leaves and then internal nodes.
func TestDifferentialAgainstSortedModel(t *testing.T) {
	tr := newTree(t, 256)
	rng := rand.New(rand.NewSource(42))
	m := &sortedModel{set: make(map[Entry]bool)}
	randEntry := func() Entry {
		return Entry{Key{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(4))}, uint64(rng.Intn(1 << 20))}
	}
	checkAscends := func(op int) {
		for q := 0; q < 50; q++ {
			start := Key{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(4))}
			limit := 1 + rng.Intn(400)
			got, want := ascendN(t, tr, start, limit), m.ascend(start, limit)
			if len(got) != len(want) {
				t.Fatalf("op %d: Ascend(%v) returned %d entries, want %d", op, start, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: Ascend(%v)[%d] = %v, want %v", op, start, i, got[i], want[i])
				}
			}
		}
	}
	const ops = 200000
	for op := 1; op <= ops; op++ {
		if op%10000 == 0 {
			checkAscends(op)
		}
		if rng.Intn(100) < 78 {
			e := randEntry()
			if rng.Intn(20) == 0 && len(m.list) > 0 {
				e = m.list[rng.Intn(len(m.list))] // re-insert an existing entry
			}
			added, err := tr.Insert(e)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.insert(e); added != want {
				t.Fatalf("op %d: Insert(%v) added=%v, want %v", op, e, added, want)
			}
			continue
		}
		if len(m.list) == 0 || rng.Intn(10) == 0 {
			e := randEntry()
			if err := tr.Delete(e); err != ErrNotFound && !m.set[e] {
				t.Fatalf("op %d: Delete(%v) of an absent entry: %v", op, e, err)
			} else if m.set[e] {
				if err != nil {
					t.Fatalf("op %d: Delete(%v): %v", op, e, err)
				}
				for i := range m.list {
					if m.list[i] == e {
						m.remove(i)
						break
					}
				}
			}
			continue
		}
		e := m.remove(rng.Intn(len(m.list)))
		if err := tr.Delete(e); err != nil {
			t.Fatalf("op %d: Delete(%v): %v", op, e, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h, err := tr.height(); err != nil || h < 3 {
		t.Fatalf("height %d (%v): the workload never split an internal node", h, err)
	}
	got, want := ascendN(t, tr, Key{}, len(m.list)+1), m.ascend(Key{}, len(m.list)+1)
	if len(got) != len(want) {
		t.Fatalf("full scan: %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("full scan [%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, e := range want {
		var hits int
		if err := tr.Lookup(e.Key, func(x Entry) bool {
			hits++
			return true
		}); err != nil || hits == 0 {
			t.Fatalf("Lookup(%v): %d hits, %v", e.Key, hits, err)
		}
	}
}

// Readers ascend while one writer inserts (splitting leaves and internal
// nodes): every scan is ordered and sees at least every entry whose
// insert returned before the scan began. Run under -race.
func TestConcurrentAscendWithWriter(t *testing.T) {
	tr := newTree(t, 128)
	const total = 60000
	var published atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := uint64(published.Load())
				from := uint64(0)
				if n > 0 {
					from = uint64(rng.Int63n(int64(n)))
				}
				// The writer inserts keys 2i in order, so every even key
				// in [from, 2n) was present before this scan began and
				// must come back, in order, with nothing between.
				want, count, bad := from+from%2, 0, false
				err := tr.Ascend(Key{K1: from}, func(e Entry) bool {
					if e.Key.K1 >= 2*n {
						return false
					}
					if e.Key.K1 != want {
						bad = true
						return false
					}
					want += 2
					count++
					return count < 256
				})
				if err != nil {
					errs <- err.Error()
					return
				}
				if bad {
					errs <- "scan missed or reordered published entries"
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < total; i++ {
		if _, err := tr.Insert(Entry{Key{uint64(2 * i), 0}, uint64(i)}); err != nil {
			t.Fatal(err)
		}
		published.Store(int64(i + 1))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h, err := tr.height(); err != nil || h < 3 {
		t.Fatalf("height %d (%v): the writer never split an internal node", h, err)
	}
}
