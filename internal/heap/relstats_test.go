package heap

import "testing"

func TestTupleStats(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	var tids []TID
	for i := 0; i < 10; i++ {
		tid, err := fx.rel.Insert(tx.ID(), []byte("rowrowrow"))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	fx.commit(t, tx)

	st, err := fx.rel.TupleStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 10 || st.Dead != 0 || st.Pages < 1 {
		t.Fatalf("after inserts: %+v, want 10 live / 0 dead / >=1 page", st)
	}

	tx2 := fx.begin(t)
	for _, tid := range tids[:4] {
		if err := fx.rel.Delete(tx2.ID(), tid); err != nil {
			t.Fatal(err)
		}
	}
	// Uncommitted deletes already count as dead: the estimate reads raw
	// stamps without consulting the status log.
	st, err = fx.rel.TupleStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 6 || st.Dead != 4 {
		t.Fatalf("mid-delete: %+v, want 6 live / 4 dead", st)
	}
	fx.commit(t, tx2)
}

func TestVacuumStatsPages(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	tid, err := fx.rel.Insert(tx.ID(), []byte("victim"))
	if err != nil {
		t.Fatal(err)
	}
	fx.commit(t, tx)
	tx2 := fx.begin(t)
	if err := fx.rel.Delete(tx2.ID(), tid); err != nil {
		t.Fatal(err)
	}
	fx.commit(t, tx2)

	stats, err := fx.rel.Vacuum(fx.mgr.Horizon(), VacuumDiscard, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages < 1 {
		t.Fatalf("vacuum scanned %d pages, want >=1", stats.Pages)
	}
	if stats.Removed != 1 {
		t.Fatalf("vacuum removed %d, want 1", stats.Removed)
	}

	var sum VacuumStats
	sum.Add(stats)
	sum.Add(stats)
	if sum.Pages != 2*stats.Pages || sum.Removed != 2*stats.Removed {
		t.Fatalf("VacuumStats.Add mismatch: %+v vs %+v", sum, stats)
	}
}
