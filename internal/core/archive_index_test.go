package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/device"
)

// Archive keys come from the records themselves: an overwritten file
// that is then unlinked has its chunk versions vacuumed after its chunk
// tree is unreachable, and time travel must still find them.
func TestTimeTravelOverwrittenThenUnlinkedAcrossVacuum(t *testing.T) {
	db, s := newDB(t)
	gen1 := bytes.Repeat([]byte("first "), ChunkSize/3)
	gen2 := bytes.Repeat([]byte("second"), ChunkSize/5)
	if err := s.WriteFile("/doc", gen1, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	t1 := db.mgr.LastCommitTime()
	if err := s.WriteFile("/doc", gen2, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	t2 := db.mgr.LastCommitTime()
	if err := s.Unlink("/doc"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		at   int64
		want []byte
	}{{t1, gen1}, {t2, gen2}} {
		got, err := s.ReadFileAsOf("/doc", c.at)
		if err != nil || !bytes.Equal(got, c.want) {
			t.Fatalf("asof %d after unlink and vacuum: %d bytes (want %d), %v", c.at, len(got), len(c.want), err)
		}
	}
}

// One historical read costs the same number of buffer-pool accesses
// however large the archive has grown: a seek in the archive index, not
// a scan of the archive. Each read targets the generation the latest
// vacuum archived, the one a scan in physical order reaches last.
func TestAsOfCostFlatInArchiveSize(t *testing.T) {
	db, s := newDB(t)
	gen := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 3*ChunkSize) }
	if err := s.WriteFile("/f", gen(0), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	prev := db.mgr.LastCommitTime() // when generation i-1 was current
	round := func(i int) {
		t.Helper()
		if err := s.WriteFile("/f", gen(i), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteFile(fmt.Sprintf("/other%d", i), gen(i), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteFile(fmt.Sprintf("/other%d", i), gen(i+1), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Vacuum(); err != nil {
			t.Fatal(err)
		}
	}
	gets := func(at int64, want []byte) int64 {
		t.Helper()
		before := db.pool.Stats()
		got, err := s.ReadFileAsOf("/f", at)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("asof read: %d bytes, %v", len(got), err)
		}
		after := db.pool.Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	round(1)
	after1 := gets(prev, gen(0))
	for i := 2; i <= 8; i++ {
		prev = db.mgr.LastCommitTime()
		round(i)
	}
	after8 := gets(prev, gen(7))
	if d := after8 - after1; d > 2 || d < -2 {
		t.Fatalf("asof read cost %d pool gets after 1 vacuum, %d after 8", after1, after8)
	}
}

// archiveFixture builds a volume with vacuumed history. Before t1:
// /keep and /other hold their first contents, and /gone, /was and
// /sub/inner exist. After t1: /keep and /other are overwritten, /gone is
// unlinked, /was is renamed to /now and then to /final, /sub/inner
// passes through / as /visitor, and /late is created and unlinked.
// Every archived row born after t1 is one a listing or read as of t1
// must not return.
func archiveFixture(t *testing.T) (db *DB, s *Session, t1 int64) {
	t.Helper()
	db, s = newDB(t)
	if err := s.Mkdir("/sub"); err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string]string{
		"/keep": "keep one", "/other": "other one", "/gone": "gone soon", "/was": "moves",
		"/sub/inner": "visits",
	} {
		if err := s.WriteFile(path, []byte(data), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	t1 = db.mgr.LastCommitTime()
	for _, step := range []func() error{
		func() error { return s.WriteFile("/keep", []byte("keep two"), CreateOpts{}) },
		func() error { return s.WriteFile("/other", []byte("other two"), CreateOpts{}) },
		func() error { return s.Unlink("/gone") },
		func() error { return s.Rename("/was", "/now") },
		func() error { return s.Rename("/now", "/final") },
		func() error { return s.Rename("/sub/inner", "/visitor") },
		func() error { return s.Rename("/visitor", "/sub/inner2") },
		func() error { return s.WriteFile("/late", []byte("after t1"), CreateOpts{}) },
		func() error { return s.Unlink("/late") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	return db, s, t1
}

func checkArchiveHistory(t *testing.T, db *DB, t1 int64) {
	t.Helper()
	s := db.NewSession("check")
	for path, want := range map[string]string{
		"/keep": "keep one", "/other": "other one", "/gone": "gone soon", "/was": "moves",
		"/sub/inner": "visits",
	} {
		got, err := s.ReadFileAsOf(path, t1)
		if err != nil || string(got) != want {
			t.Fatalf("%s asof t1: %q %v", path, got, err)
		}
	}
	for _, path := range []string{"/late", "/now", "/final", "/visitor", "/sub/inner2"} {
		if got, err := s.ReadFileAsOf(path, t1); !isNotExist(err) {
			t.Fatalf("%s asof t1, before it existed: %q %v", path, got, err)
		}
	}
	entries, err := s.ReadDirAsOf("/", t1)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	if got := strings.Join(names, " "); got != "gone keep other sub was" {
		t.Fatalf("listing asof t1: %s", got)
	}
	rep, err := db.Scrub()
	if err != nil || !rep.OK() {
		t.Fatalf("scrub: %v %v", rep.Problems, err)
	}
}

// A volume whose archive was written before the archive index existed
// gets the index built at open and time-travels as before. So does one
// whose index build was torn by a crash before any of it was flushed.
func TestArchiveIndexRebuiltAtOpen(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			db, _, t1 := archiveFixture(t)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := db.sw.Drop(ArchiveIdxRel); err != nil {
				t.Fatal(err)
			}
			if torn {
				// Extended but never written: the pages a crash leaves
				// when the build's flush never happened.
				if err := db.sw.Place(ArchiveIdxRel, ""); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if _, err := db.sw.Extend(ArchiveIdxRel); err != nil {
						t.Fatal(err)
					}
				}
			}
			db2, err := db.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if db2.archIdx.Load() == nil {
				t.Fatal("archive index not built at open")
			}
			checkArchiveHistory(t, db2, t1)
		})
	}
}

// Scrub checks the archive index entry by entry against the archive,
// and lookups never take a foreign record for history.
func TestScrubReportsBadArchiveIndexEntry(t *testing.T) {
	db, s, t1 := archiveFixture(t)
	checkArchiveHistory(t, db, t1)
	idx := db.archIdx.Load()
	keepRel, otherRel := mustOID(t, db, "/keep"), mustOID(t, db, "/other")
	var keepChunk, otherChunk btree.Entry
	if err := idx.Ascend(btree.Key{K1: 1}, func(e btree.Entry) bool {
		switch device.OID(e.Key.K1 >> 32) {
		case keepRel:
			keepChunk = e
		case otherRel:
			otherChunk = e
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if keepChunk.Val == 0 || otherChunk.Val == 0 {
		t.Fatalf("archived chunks not indexed: keep %v other %v", keepChunk, otherChunk)
	}
	// Under /keep's chunk 0, dying just after t1 so a lookup as of t1
	// meets it first, an entry pointing at /other's archived chunk 0.
	bad := btree.Entry{Key: archiveKey(keepRel, 0, t1+1), Val: otherChunk.Val}
	if _, err := idx.Insert(bad); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "archive_idx") {
		t.Fatalf("planted entry %v not reported: %v", bad, rep.Problems)
	}
	if got, err := s.ReadFileAsOf("/keep", t1); err != nil || string(got) != "keep one" {
		t.Fatalf("asof read with a foreign entry present: %q %v", got, err)
	}

	// A genuine entry removed: the record it indexed is reported.
	if err := idx.Delete(bad); err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(keepChunk); err != nil {
		t.Fatal(err)
	}
	rep, err = db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "no archive_idx entry") {
		t.Fatalf("missing entry %v not reported: %v", keepChunk, rep.Problems)
	}
}

func TestRelationsCatalogListsArchiveIndex(t *testing.T) {
	db, _, _ := archiveFixture(t)
	rows, err := db.relRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "archive_idx" {
			if r.Kind != "index" || r.OID != int64(ArchiveIdxRel) || r.Pages == 0 {
				t.Fatalf("archive_idx row: %+v", r)
			}
			return
		}
	}
	t.Fatal("inv_relations has no archive_idx row")
}

// A version a transaction wrote and replaced before it committed was
// never live: it dies at the instant it is born, so it shares its
// deleter time with the version it replaced. Vacuum reuses the slots an
// earlier pass freed, so such a version can sit before its predecessor
// in the archive. A historical read must pass over it to the
// predecessor.
func TestTimeTravelSkipsVersionsReplacedInTheirOwnTransaction(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/f", []byte(strings.Repeat("a", 300)), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	gen1 := []byte(strings.Repeat("b", 300))
	if err := s.WriteFile("/f", gen1, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/z", []byte("z"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/a", []byte("a"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Unlink("/z"); err != nil {
		t.Fatal(err)
	}
	before := db.mgr.LastCommitTime()
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	oid, err := db.Resolve(db.mgr.CurrentSnapshot(), "/a")
	if err != nil {
		t.Fatal(err)
	}

	// One transaction writes two separate ranges of /f's only chunk,
	// each flushed as its own version, and renames /a twice.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenWrite("/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 100} {
		if _, err := f.WriteAt([]byte("cc"), off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("/b", "/c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}

	if got, err := s.ReadFileAsOf("/f", before); err != nil || !bytes.Equal(got, gen1) {
		t.Fatalf("/f as of before the transaction: %.20q (%d bytes), %v", got, len(got), err)
	}
	if p, err := db.PathOf(db.mgr.AsOf(before), oid); err != nil || p != "/a" {
		t.Fatalf("path of /a's file as of before the renames: %q, %v", p, err)
	}
}
