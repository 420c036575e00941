package heap

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/txn"
)

type fixture struct {
	sw   *device.Switch
	pool *buffer.Pool
	mgr  *txn.Manager
	rel  *Relation
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	log, err := txn.OpenLog(mustManager(t, sw))
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(log)
	n := int64(0)
	var mu sync.Mutex
	mgr.TimeSource = func() int64 { mu.Lock(); defer mu.Unlock(); n += 10; return n }
	pool := buffer.NewPool(sw, 32)
	const relOID device.OID = 100
	if err := sw.Place(relOID, ""); err != nil {
		t.Fatal(err)
	}
	return &fixture{sw: sw, pool: pool, mgr: mgr, rel: Open(relOID, pool, mgr)}
}

func mustManager(t *testing.T, sw *device.Switch) device.Manager {
	t.Helper()
	m, err := sw.Manager("mem")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (fx *fixture) begin(t *testing.T) *txn.Tx {
	t.Helper()
	tx, err := fx.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func (fx *fixture) commit(t *testing.T, tx *txn.Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertFetchVisibility(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	tid, err := fx.rel.Insert(tx.ID(), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	// Own snapshot sees it.
	if got, err := fx.rel.Fetch(tx.Snapshot(), tid); err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("self fetch: %q, %v", got, err)
	}
	// Outside snapshot does not.
	if _, err := fx.rel.Fetch(fx.mgr.CurrentSnapshot(), tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("uncommitted visible outside: %v", err)
	}
	fx.commit(t, tx)
	if got, err := fx.rel.Fetch(fx.mgr.CurrentSnapshot(), tid); err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("post-commit fetch: %q, %v", got, err)
	}
}

func TestAbortInvisible(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	tid, _ := fx.rel.Insert(tx.ID(), []byte("doomed"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.rel.Fetch(fx.mgr.CurrentSnapshot(), tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("aborted insert visible: %v", err)
	}
}

func TestDeleteAndTimeTravel(t *testing.T) {
	fx := newFixture(t)
	t1 := fx.begin(t)
	tid, _ := fx.rel.Insert(t1.ID(), []byte("v1"))
	fx.commit(t, t1)
	time1 := fx.mgr.CommitTime(t1.ID())

	t2 := fx.begin(t)
	if err := fx.rel.Delete(t2.ID(), tid); err != nil {
		t.Fatal(err)
	}
	// Deleter's own snapshot no longer sees it.
	if _, err := fx.rel.Fetch(t2.Snapshot(), tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("deleter still sees record: %v", err)
	}
	fx.commit(t, t2)
	time2 := fx.mgr.CommitTime(t2.ID())

	if _, err := fx.rel.Fetch(fx.mgr.CurrentSnapshot(), tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("deleted record visible now: %v", err)
	}
	// Time travel to before the delete: the record is back.
	if got, err := fx.rel.Fetch(fx.mgr.AsOf(time1), tid); err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("asof fetch: %q, %v", got, err)
	}
	if _, err := fx.rel.Fetch(fx.mgr.AsOf(time2), tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("asof(after delete) sees record: %v", err)
	}
}

func TestUpdateKeepsOldVersion(t *testing.T) {
	fx := newFixture(t)
	t1 := fx.begin(t)
	tid, _ := fx.rel.Insert(t1.ID(), []byte("old"))
	fx.commit(t, t1)
	time1 := fx.mgr.CommitTime(t1.ID())

	t2 := fx.begin(t)
	tid2, err := fx.rel.Update(t2.ID(), tid, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	fx.commit(t, t2)

	snap := fx.mgr.CurrentSnapshot()
	if got, _ := fx.rel.Fetch(snap, tid2); !bytes.Equal(got, []byte("new")) {
		t.Fatalf("current = %q", got)
	}
	if _, err := fx.rel.Fetch(snap, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatal("old version still current")
	}
	if got, _ := fx.rel.Fetch(fx.mgr.AsOf(time1), tid); !bytes.Equal(got, []byte("old")) {
		t.Fatalf("history = %q", got)
	}
}

func TestWriteClash(t *testing.T) {
	fx := newFixture(t)
	t1 := fx.begin(t)
	tid, _ := fx.rel.Insert(t1.ID(), []byte("x"))
	fx.commit(t, t1)

	t2 := fx.begin(t)
	if err := fx.rel.Delete(t2.ID(), tid); err != nil {
		t.Fatal(err)
	}
	t3 := fx.begin(t)
	if err := fx.rel.Delete(t3.ID(), tid); !errors.Is(err, ErrWriteClash) {
		t.Fatalf("concurrent delete: %v", err)
	}
	// t2 aborts; t3 may now delete (the stale stamp is overwritten).
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := fx.rel.Delete(t3.ID(), tid); err != nil {
		t.Fatalf("delete after aborted deleter: %v", err)
	}
	fx.commit(t, t3)
}

func TestScan(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	for i := 0; i < 10; i++ {
		if _, err := fx.rel.Insert(tx.ID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fx.commit(t, tx)
	// Delete evens.
	tx2 := fx.begin(t)
	err := fx.rel.Scan(tx2.Snapshot(), func(tid TID, p []byte) (bool, error) {
		if p[0]%2 == 0 {
			return false, fx.rel.Delete(tx2.ID(), tid)
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.commit(t, tx2)
	var got []byte
	err = fx.rel.Scan(fx.mgr.CurrentSnapshot(), func(tid TID, p []byte) (bool, error) {
		got = append(got, p[0])
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("scan saw %v", got)
	}
	for _, b := range got {
		if b%2 == 0 {
			t.Fatalf("deleted record in scan: %v", got)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	for i := 0; i < 10; i++ {
		if _, err := fx.rel.Insert(tx.ID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fx.commit(t, tx)
	n := 0
	err := fx.rel.Scan(fx.mgr.CurrentSnapshot(), func(TID, []byte) (bool, error) {
		n++
		return n == 3, nil
	})
	if err != nil || n != 3 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

func TestLargeRecordsSpanPages(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	payload := make([]byte, MaxPayload)
	for i := 0; i < 5; i++ {
		payload[0] = byte(i)
		if _, err := fx.rel.Insert(tx.ID(), payload); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	fx.commit(t, tx)
	n, err := fx.rel.NPages()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("5 max-size records used %d pages, want 5", n)
	}
	if _, err := fx.rel.Insert(txn.BootstrapXID, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized insert: %v", err)
	}
}

func TestVacuumDiscard(t *testing.T) {
	fx := newFixture(t)
	t1 := fx.begin(t)
	var tids []TID
	for i := 0; i < 6; i++ {
		tid, _ := fx.rel.Insert(t1.ID(), []byte{byte(i)})
		tids = append(tids, tid)
	}
	fx.commit(t, t1)
	t2 := fx.begin(t)
	for _, tid := range tids[:3] {
		if err := fx.rel.Delete(t2.ID(), tid); err != nil {
			t.Fatal(err)
		}
	}
	fx.commit(t, t2)

	var removed []TID
	stats, err := fx.rel.Vacuum(fx.mgr.Horizon(), VacuumDiscard, nil, 0, nil, func(tid TID, _ []byte) {
		removed = append(removed, tid)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 3 || len(removed) != 3 {
		t.Fatalf("stats = %+v, removed %v", stats, removed)
	}
	// Survivors intact.
	count := 0
	_ = fx.rel.Scan(fx.mgr.CurrentSnapshot(), func(TID, []byte) (bool, error) { count++; return false, nil })
	if count != 3 {
		t.Fatalf("%d records after vacuum", count)
	}
}

func TestVacuumArchivePreservesHistory(t *testing.T) {
	fx := newFixture(t)
	const archOID device.OID = 101
	if err := fx.sw.Place(archOID, ""); err != nil {
		t.Fatal(err)
	}
	arch := Open(archOID, fx.pool, fx.mgr)

	t1 := fx.begin(t)
	tid, _ := fx.rel.Insert(t1.ID(), []byte("precious"))
	fx.commit(t, t1)
	t2 := fx.begin(t)
	if err := fx.rel.Delete(t2.ID(), tid); err != nil {
		t.Fatal(err)
	}
	fx.commit(t, t2)

	vx := fx.begin(t)
	stats, err := fx.rel.Vacuum(fx.mgr.Horizon(), VacuumArchive, arch, vx.ID(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.commit(t, vx)
	if stats.Archived != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	found := false
	err = arch.Scan(fx.mgr.CurrentSnapshot(), func(_ TID, rec []byte) (bool, error) {
		h, payload, ok := DecodeArchive(rec)
		if !ok {
			return false, fmt.Errorf("bad archive record")
		}
		if h.Xmin == t1.ID() && h.Xmax == t2.ID() && bytes.Equal(payload, []byte("precious")) {
			if h.XminTime != fx.mgr.CommitTime(t1.ID()) || h.XmaxTime != fx.mgr.CommitTime(t2.ID()) {
				return false, fmt.Errorf("archive times wrong")
			}
			found = true
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("archived record not found")
	}
}

func TestVacuumSkipsRecordsLiveSnapshotsNeed(t *testing.T) {
	fx := newFixture(t)
	t1 := fx.begin(t)
	tid, _ := fx.rel.Insert(t1.ID(), []byte("x"))
	fx.commit(t, t1)

	reader := fx.begin(t) // holds the horizon down
	t2 := fx.begin(t)
	if err := fx.rel.Delete(t2.ID(), tid); err != nil {
		t.Fatal(err)
	}
	fx.commit(t, t2)

	stats, err := fx.rel.Vacuum(fx.mgr.Horizon(), VacuumDiscard, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 0 {
		t.Fatalf("vacuum removed records a live snapshot needs: %+v", stats)
	}
	// The old reader can still fetch it.
	if got, err := fx.rel.Fetch(reader.Snapshot(), tid); err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("reader fetch after vacuum: %q %v", got, err)
	}
	if err := reader.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumRemovesAbortedInserts(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	if _, err := fx.rel.Insert(tx.ID(), []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	stats, err := fx.rel.Vacuum(fx.mgr.Horizon(), VacuumArchive, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 || stats.Archived != 0 {
		t.Fatalf("aborted insert handling: %+v", stats)
	}
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	fx := newFixture(t)
	// Committed txn with flush.
	t1 := fx.begin(t)
	tidOK, _ := fx.rel.Insert(t1.ID(), []byte("durable"))
	if err := fx.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	fx.commit(t, t1)

	// In-flight txn whose data pages even reach disk — but no commit.
	t2 := fx.begin(t)
	tidBad, _ := fx.rel.Insert(t2.ID(), []byte("ghost"))
	if err := fx.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Crash: lose the buffer cache, reopen log and manager.
	fx.pool.Crash()
	log2, err := txn.OpenLog(mustManager(t, fx.sw))
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := txn.NewManager(log2)
	pool2 := buffer.NewPool(fx.sw, 32)
	rel2 := Open(fx.rel.OID, pool2, mgr2)

	snap := mgr2.CurrentSnapshot()
	if got, err := rel2.Fetch(snap, tidOK); err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("committed record lost: %q %v", got, err)
	}
	if _, err := rel2.Fetch(snap, tidBad); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("uncommitted record visible after crash: %v", err)
	}
}

// property: a random interleaving of committed/aborted transactions
// inserting and deleting records always leaves exactly the committed,
// undeleted records visible.
func TestPropertyVisibilityModel(t *testing.T) {
	f := func(seed int64) bool {
		fx := newFixture(t)
		rng := newRand(seed)
		type rec struct {
			tid     TID
			payload byte
		}
		model := map[TID]byte{} // committed live records
		var visible []rec
		_ = visible
		for round := 0; round < 20; round++ {
			tx, err := fx.mgr.Begin()
			if err != nil {
				return false
			}
			local := map[TID]byte{}
			deleted := map[TID]bool{}
			nops := 1 + rng.Intn(6)
			for i := 0; i < nops; i++ {
				if len(model) > 0 && rng.Intn(3) == 0 {
					// delete a random committed record not yet deleted
					for tid := range model {
						if deleted[tid] {
							continue
						}
						if err := fx.rel.Delete(tx.ID(), tid); err != nil {
							return false
						}
						deleted[tid] = true
						break
					}
				} else {
					b := byte(rng.Intn(256))
					tid, err := fx.rel.Insert(tx.ID(), []byte{b})
					if err != nil {
						return false
					}
					local[tid] = b
				}
			}
			if rng.Intn(2) == 0 {
				if err := tx.Commit(); err != nil {
					return false
				}
				for tid, b := range local {
					model[tid] = b
				}
				for tid := range deleted {
					delete(model, tid)
				}
			} else {
				if err := tx.Abort(); err != nil {
					return false
				}
			}
			// Verify visible state matches the model.
			seen := map[TID]byte{}
			err = fx.rel.Scan(fx.mgr.CurrentSnapshot(), func(tid TID, p []byte) (bool, error) {
				seen[tid] = p[0]
				return false, nil
			})
			if err != nil {
				return false
			}
			if len(seen) != len(model) {
				return false
			}
			for tid, b := range model {
				if seen[tid] != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func newRand(seed int64) *randSrc {
	return &randSrc{state: uint64(seed)*2862933555777941757 + 3037000493}
}

// randSrc is a tiny deterministic generator so the property test does
// not depend on math/rand behaviour across Go versions.
type randSrc struct{ state uint64 }

func (r *randSrc) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

func TestTIDPackUnpack(t *testing.T) {
	cases := []TID{{0, 0}, {1, 2}, {1 << 30, 65535}, {42, 7}}
	for _, tid := range cases {
		if got := UnpackTID(tid.Pack()); got != tid {
			t.Fatalf("round trip %v -> %v", tid, got)
		}
	}
	if s := (TID{3, 4}).String(); s != "(3,4)" {
		t.Fatalf("String = %q", s)
	}
}

func TestStampsAndScanAll(t *testing.T) {
	fx := newFixture(t)
	t1 := fx.begin(t)
	tid, _ := fx.rel.Insert(t1.ID(), []byte("v"))
	fx.commit(t, t1)
	t2 := fx.begin(t)
	if err := fx.rel.Delete(t2.ID(), tid); err != nil {
		t.Fatal(err)
	}
	fx.commit(t, t2)

	xmin, xmax, err := fx.rel.Stamps(tid)
	if err != nil || xmin != t1.ID() || xmax != t2.ID() {
		t.Fatalf("Stamps = %d/%d, %v", xmin, xmax, err)
	}
	if _, _, err := fx.rel.Stamps(TID{99, 99}); err == nil {
		t.Fatal("Stamps on missing record succeeded")
	}

	// ScanAll sees the dead record a visible Scan would skip.
	seen := 0
	err = fx.rel.ScanAll(func(got TID, xm, xx txn.XID, payload []byte) (bool, error) {
		seen++
		if got == tid && (xm != t1.ID() || xx != t2.ID() || string(payload) != "v") {
			t.Fatalf("ScanAll row: %v %d %d %q", got, xm, xx, payload)
		}
		return false, nil
	})
	if err != nil || seen != 1 {
		t.Fatalf("ScanAll saw %d rows, %v", seen, err)
	}
	// Early stop.
	if _, err := fx.rel.Insert(txn.BootstrapXID, []byte("w")); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := fx.rel.ScanAll(func(TID, txn.XID, txn.XID, []byte) (bool, error) {
		n++
		return true, nil
	}); err != nil || n != 1 {
		t.Fatalf("ScanAll early stop: %d, %v", n, err)
	}
}

func TestUpdateOfDeletedRecordFails(t *testing.T) {
	fx := newFixture(t)
	t1 := fx.begin(t)
	tid, _ := fx.rel.Insert(t1.ID(), []byte("x"))
	fx.commit(t, t1)
	t2 := fx.begin(t)
	if err := fx.rel.Delete(t2.ID(), tid); err != nil {
		t.Fatal(err)
	}
	fx.commit(t, t2)
	t3 := fx.begin(t)
	if _, err := fx.rel.Update(t3.ID(), tid, []byte("y")); !errors.Is(err, ErrWriteClash) {
		t.Fatalf("update of deleted record: %v", err)
	}
	if err := t3.Abort(); err != nil {
		t.Fatal(err)
	}
}
