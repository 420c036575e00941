package buffer

import (
	"math/rand"
	"testing"
)

// buildLRUScenario drives a pool through a seeded mix of page creation,
// hits and dirtying, leaving some frames pinned, and returns the pool
// with its dirty frames snapshotted (flush-pinned and off the LRU). Some
// of those frames were created under the flush and never unpinned, so
// they carry no stamp yet and draw fresh ones when the flush unpins them.
func buildLRUScenario(t *testing.T, seed int64) (*Pool, []*Frame) {
	t.Helper()
	p, sw := newPool(t, 1024)
	if err := sw.Place(1, ""); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	const pages = 400
	for i := 0; i < pages; i++ {
		f, _, err := p.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f, rng.Intn(3) == 0)
	}
	for i := 0; i < 2000; i++ {
		f, err := p.Get(1, uint32(rng.Intn(pages)))
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f, rng.Intn(4) == 0)
	}
	// A few frames stay pinned by their "owner" across the flush.
	for i := 0; i < 10; i++ {
		if _, err := p.Get(1, uint32(rng.Intn(pages))); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh pages whose creator still holds them when the flush starts
	// and lets go before it ends: the flush's unpin is their first.
	var fresh []*Frame
	for i := 0; i < 40; i++ {
		f, _, err := p.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, f)
	}
	frames := p.snapshotDirty(nil, 0)
	for _, f := range fresh {
		p.Release(f, false)
	}
	return p, frames
}

// lruOrder lists each shard's LRU as (page, stamp) pairs, front first.
func lruOrder(p *Pool) [numShards][][2]uint64 {
	var out [numShards][][2]uint64
	for i := range p.shards {
		for el := p.shards[i].lru.Front(); el != nil; el = el.Next() {
			f := el.Value.(*Frame)
			out[i] = append(out[i], [2]uint64{uint64(f.Key.Page), f.stamp})
		}
	}
	return out
}

// The batched reinsertion after a flush must leave every shard's LRU in
// exactly the order one insertByStamp per frame leaves it, so eviction
// order (and every simulated-clock figure that depends on it) cannot move.
func TestUnpinFlushedMatchesOneByOne(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		batched, frames := buildLRUScenario(t, seed)
		if len(frames) == 0 {
			t.Fatal("scenario dirtied nothing")
		}
		batched.unpinFlushed(frames)

		single, frames := buildLRUScenario(t, seed)
		for _, f := range frames {
			s := single.shard(f.Key)
			s.mu.Lock()
			f.pins--
			if f.pins == 0 && f.el == nil && s.frames[f.Key] == f {
				if f.stamp == 0 {
					f.stamp = single.clock.Add(1)
				}
				s.insertByStamp(f)
			}
			s.mu.Unlock()
		}

		got, want := lruOrder(batched), lruOrder(single)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("seed %d shard %d: %d frames on the LRU, want %d", seed, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("seed %d shard %d position %d: %v, want %v", seed, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
