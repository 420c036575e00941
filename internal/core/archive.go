package core

import (
	"errors"
	"math"
	"sort"

	"repro/internal/btree"
	"repro/internal/device"
	"repro/internal/heap"
)

// The archive index. The vacuum cleaner moves obsolete record versions
// into the archive heap ("If time travel is desired, the records must be
// saved forever somewhere"); the archive index maps (source relation,
// record key, deleter's commit time) → archive TID, so a historical read
// that misses the live heap costs one B-tree seek instead of a scan of
// the whole archive.
//
// A record's archive keys are the K1 halves of its source index keys:
// the chunk number of a chunk record, the file OID of an attribute row,
// and both the parent and the file OID of a naming row. They are derived
// from the record itself, never from the tree that indexed it — by the
// time vacuum runs, an unlinked file's chunk tree is unreachable.
//
// The index is derived state with no visibility of its own. An entry
// counts only when its TID resolves to an archive record visible to the
// current snapshot whose header names the entry's relation and deleter
// time, so entries left by a vacuum that aborted or crashed resolve to
// invisible or foreign records and are skipped.

// archiveBuilt is the first entry of a completely built archive index.
// Relation 0 is never a source relation, so no lookup range reaches it.
var archiveBuilt = btree.Entry{}

// archiveKey is the archive-index key of one archived record: its
// source relation and one of its record keys in K1, its deleter's
// commit time in K2. The versions of one key therefore sort by the
// instant they died, and the version live at instant t is found by one
// seek to the first entry after t. A deleter with no recorded time (0)
// sorts last, as never deleted.
func archiveKey(rel device.OID, key uint32, xmaxTime int64) btree.Key {
	t := uint64(xmaxTime)
	if xmaxTime == 0 {
		t = math.MaxUint64
	}
	return btree.Key{K1: uint64(rel)<<32 | uint64(key), K2: t}
}

// archiveBatch collects the archive-index entries of the records one
// pass archives and inserts them in key order, so consecutive inserts
// land on the same leaves.
type archiveBatch struct {
	entries []btree.Entry
	keys    []uint32
}

// add indexes the archived record at atid, which came from rel, under
// every key derive finds in its payload.
func (b *archiveBatch) add(rel device.OID, derive func(payload []byte, dst []uint32) []uint32,
	atid heap.TID, payload []byte, xmaxTime int64) {
	b.keys = derive(payload, b.keys[:0])
	for _, k := range b.keys {
		b.entries = append(b.entries, btree.Entry{Key: archiveKey(rel, k, xmaxTime), Val: atid.Pack()})
	}
}

// collect returns the heap.Vacuum archive callback for relation rel.
func (b *archiveBatch) collect(rel device.OID, derive func(payload []byte, dst []uint32) []uint32) func(heap.TID, []byte, int64) {
	return func(atid heap.TID, payload []byte, xmaxTime int64) { b.add(rel, derive, atid, payload, xmaxTime) }
}

// insert adds the collected entries to the archive index.
func (b *archiveBatch) insert(idx *btree.Tree) error {
	sort.Slice(b.entries, func(i, j int) bool { return b.entries[i].Less(b.entries[j]) })
	for _, e := range b.entries {
		if _, err := idx.Insert(e); err != nil {
			return err
		}
	}
	return nil
}

// openArchiveIndex attaches the archive index at Open. An index without
// the completion mark was torn by a crash mid-build and is discarded. A
// volume whose archive has records but no index — one written before
// the index existed — gets it built here, with one archive scan. A
// fresh volume creates nothing until its first vacuum.
func (db *DB) openArchiveIndex() error {
	n, err := db.pool.NPages(ArchiveIdxRel)
	if err != nil {
		return err
	}
	if n > 0 {
		t, err := btree.Open(ArchiveIdxRel, db.pool)
		if err != nil {
			return err
		}
		if archiveIndexBuilt(t) {
			db.archIdx.Store(t)
			return nil
		}
		db.pool.InvalidateRel(ArchiveIdxRel)
		if err := db.sw.Drop(ArchiveIdxRel); err != nil {
			return err
		}
		if err := db.sw.Place(ArchiveIdxRel, db.opts.DefaultClass); err != nil {
			return err
		}
	}
	if n, err := db.archive.NPages(); err != nil || n == 0 {
		return err
	}
	_, err = db.archiveIndex()
	return err
}

func archiveIndexBuilt(t *btree.Tree) bool {
	built := false
	err := t.Ascend(btree.Key{}, func(e btree.Entry) bool {
		built = e == archiveBuilt
		return false
	})
	return err == nil && built
}

// archiveIndex returns the archive index, building it on first use from
// whatever the archive already holds. The entries are flushed before the
// completion mark is inserted and flushed in turn, so a durable mark
// proves a complete index.
func (db *DB) archiveIndex() (*btree.Tree, error) {
	if t := db.archIdx.Load(); t != nil {
		return t, nil
	}
	db.archMu.Lock()
	defer db.archMu.Unlock()
	if t := db.archIdx.Load(); t != nil {
		return t, nil
	}
	t, err := btree.Open(ArchiveIdxRel, db.pool)
	if err != nil {
		return nil, err
	}
	var batch archiveBatch
	err = db.archive.Scan(db.mgr.CurrentSnapshot(), func(tid heap.TID, rec []byte) (bool, error) {
		if h, payload, ok := heap.DecodeArchive(rec); ok {
			rel := device.OID(h.Rel)
			batch.add(rel, db.archiveKeys(rel), tid, payload, h.XmaxTime)
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	if err := batch.insert(t); err != nil {
		return nil, err
	}
	if err := db.syncArchiveIndex(); err != nil {
		return nil, err
	}
	if _, err := t.Insert(archiveBuilt); err != nil {
		return nil, err
	}
	if err := db.syncArchiveIndex(); err != nil {
		return nil, err
	}
	db.archIdx.Store(t)
	return t, nil
}

func (db *DB) syncArchiveIndex() error {
	if err := db.pool.FlushRel(ArchiveIdxRel); err != nil {
		return err
	}
	return db.sw.Sync()
}

// archiveKeys returns the archive-key derivation for records of rel.
func (db *DB) archiveKeys(rel device.OID) func(payload []byte, dst []uint32) []uint32 {
	for _, s := range db.ns.shards {
		switch rel {
		case s.naming.OID:
			return namingArchiveKeys
		case s.fileatt.OID:
			return attArchiveKeys
		}
	}
	return chunkArchiveKeys
}

func namingArchiveKeys(payload []byte, dst []uint32) []uint32 {
	_, parent, file, err := decodeNaming(payload)
	if err != nil {
		return dst
	}
	return append(dst, uint32(parent), uint32(file))
}

func attArchiveKeys(payload []byte, dst []uint32) []uint32 {
	a, err := decodeAttr(payload)
	if err != nil {
		return dst
	}
	return append(dst, uint32(a.File))
}

func chunkArchiveKeys(payload []byte, dst []uint32) []uint32 {
	chunkno, _, err := decodeChunk(payload)
	if err != nil {
		return dst
	}
	return append(dst, chunkno)
}

// archiveRange calls fn, in deleter-time order, for every archived
// record of relation rel under key that was deleted after asof, until fn
// returns false. fn runs under the index's read lock and must not touch
// the archive index itself.
func (db *DB) archiveRange(rel device.OID, key uint32, asof int64,
	fn func(h heap.ArchiveHeader, payload []byte) (more bool, err error)) error {
	idx := db.archIdx.Load()
	if idx == nil {
		return nil
	}
	npages, err := db.archive.NPages()
	if err != nil {
		return err
	}
	start := archiveKey(rel, key, asof+1)
	snap := db.mgr.CurrentSnapshot()
	var fnErr error
	err = idx.Ascend(start, func(e btree.Entry) bool {
		if e.Key.K1 != start.K1 {
			return false
		}
		tid := heap.UnpackTID(e.Val)
		if tid.Page >= npages {
			return true // written by a vacuum whose archive pages never reached the device
		}
		rec, err := db.archive.Fetch(snap, tid)
		if err != nil {
			if errors.Is(err, heap.ErrNotVisible) || errors.Is(err, heap.ErrNoRecord) {
				return true
			}
			fnErr = err
			return false
		}
		h, payload, ok := heap.DecodeArchive(rec)
		if !ok || archiveKey(device.OID(h.Rel), key, h.XmaxTime) != e.Key {
			return true
		}
		more, err := fn(h, payload)
		if err != nil {
			fnErr = err
			return false
		}
		return more
	})
	if err != nil {
		return err
	}
	return fnErr
}

// archiveFetch finds the archived version of a record of rel that was
// live at asof and accepted by check. The versions of one record never
// overlap in time, so the first accepted one to die after asof is the
// only candidate: it is the answer if it was born by asof, and nothing
// is otherwise. A version its own transaction replaced was never live
// at all and is passed over: it dies when its predecessor does, and may
// sort before it. Records that check rejects merely share the key.
func (db *DB) archiveFetch(rel device.OID, key btree.Key, asof int64,
	check func(payload []byte) (bool, error)) (out []byte, found bool, err error) {
	err = db.archiveRange(rel, uint32(key.K1), asof, func(h heap.ArchiveHeader, payload []byte) (bool, error) {
		if h.XminTime == 0 || h.XmaxTime != 0 && h.XminTime >= h.XmaxTime {
			return true, nil
		}
		ok, err := check(payload)
		if err != nil || !ok {
			return err == nil, err
		}
		if h.XminTime <= asof {
			out, found = payload, true
		}
		return false, nil
	})
	return out, found, err
}

// archivedBindings lists the naming rows of directory dir that were
// live at asof and have since been vacuumed into the archive.
func (db *DB) archivedBindings(namingRel, dir device.OID, asof int64) ([]DirEntry, error) {
	var out []DirEntry
	err := db.archiveRange(namingRel, uint32(dir), asof, func(h heap.ArchiveHeader, payload []byte) (bool, error) {
		if h.XminTime == 0 || h.XminTime > asof {
			return true, nil
		}
		if name, parent, file, err := decodeNaming(payload); err == nil && parent == dir {
			out = append(out, DirEntry{Name: name, File: file})
		}
		return true, nil
	})
	return out, err
}

// scrubArchiveIndex checks the archive index against the archive: every
// entry that resolves to a visible archive record must carry that
// record's relation, deleter time and one of its keys, and every
// visible archive record must be reachable through all of its keys.
// Entries resolving to nothing visible are the inert leftovers of an
// aborted or crashed vacuum and are not problems.
func (db *DB) scrubArchiveIndex(rep *ScrubReport) {
	idx := db.archIdx.Load()
	if idx == nil {
		return
	}
	snap := db.mgr.CurrentSnapshot()
	npages, err := db.archive.NPages()
	if err != nil {
		rep.problemf("archive: %v", err)
		return
	}
	indexed := make(map[btree.Entry]bool)
	var entries []btree.Entry
	err = idx.Ascend(btree.Key{}, func(e btree.Entry) bool {
		entries = append(entries, e)
		return true
	})
	if err != nil {
		rep.problemf("archive_idx: %v", err)
		return
	}
	var keys []uint32
	for _, e := range entries {
		if e == archiveBuilt {
			continue
		}
		tid := heap.UnpackTID(e.Val)
		if tid.Page >= npages {
			continue
		}
		rec, err := db.archive.Fetch(snap, tid)
		if err != nil {
			if !errors.Is(err, heap.ErrNotVisible) && !errors.Is(err, heap.ErrNoRecord) {
				rep.problemf("archive_idx: entry %v: %v", e, err)
			}
			continue
		}
		h, payload, ok := heap.DecodeArchive(rec)
		if !ok {
			rep.problemf("archive_idx: entry %v: undecodable archive record at %s", e, tid)
			continue
		}
		rel := device.OID(h.Rel)
		keys = db.archiveKeys(rel)(payload, keys[:0])
		match := false
		for _, k := range keys {
			match = match || archiveKey(rel, k, h.XmaxTime) == e.Key
		}
		if !match {
			rep.problemf("archive_idx: entry %v does not match the archive record at %s (relation %d, keys %v, deleted at %d)",
				e, tid, h.Rel, keys, h.XmaxTime)
			continue
		}
		indexed[e] = true
	}
	err = db.archive.Scan(snap, func(tid heap.TID, rec []byte) (bool, error) {
		h, payload, ok := heap.DecodeArchive(rec)
		if !ok {
			rep.problemf("archive: undecodable record at %s", tid)
			return false, nil
		}
		rel := device.OID(h.Rel)
		keys = db.archiveKeys(rel)(payload, keys[:0])
		for _, k := range keys {
			if e := (btree.Entry{Key: archiveKey(rel, k, h.XmaxTime), Val: tid.Pack()}); !indexed[e] {
				rep.problemf("archive: record at %s (relation %d, key %d) has no archive_idx entry", tid, h.Rel, k)
			}
		}
		return false, nil
	})
	if err != nil {
		rep.problemf("archive: scan: %v", err)
	}
}
