package heap

import (
	"encoding/binary"

	"repro/internal/txn"
)

// VacuumMode selects what happens to obsolete records. The paper:
// "Periodically, obsolete records must be garbage-collected from the
// database, and either moved elsewhere or physically deleted. … If time
// travel is desired, the records must be saved forever somewhere."
type VacuumMode int

// Vacuum modes.
const (
	VacuumArchive VacuumMode = iota // move obsolete records to the archive
	VacuumDiscard                   // physically delete them ("nosave")
)

// VacuumStats reports what a vacuum pass did.
type VacuumStats struct {
	Pages     int // pages scanned
	Scanned   int // live slots examined
	Archived  int // obsolete records moved to the archive
	Removed   int // slots freed (archived + aborted + discarded)
	Reclaimed int // bytes recovered by page compaction
}

// Add accumulates another pass's stats into s.
func (s *VacuumStats) Add(o VacuumStats) {
	s.Pages += o.Pages
	s.Scanned += o.Scanned
	s.Archived += o.Archived
	s.Removed += o.Removed
	s.Reclaimed += o.Reclaimed
}

// ArchiveHeader is the envelope prepended to archived payloads so a
// historical reader can reconstruct visibility from commit times alone.
type ArchiveHeader struct {
	Rel        uint32 // relation the record came from
	Xmin, Xmax txn.XID
	XminTime   int64 // commit time of the inserter
	XmaxTime   int64 // commit time of the deleter
}

const archiveHeaderSize = 4 + 4 + 4 + 8 + 8

func putArchiveHeader(out []byte, h ArchiveHeader) {
	binary.LittleEndian.PutUint32(out[0:], h.Rel)
	binary.LittleEndian.PutUint32(out[4:], uint32(h.Xmin))
	binary.LittleEndian.PutUint32(out[8:], uint32(h.Xmax))
	binary.LittleEndian.PutUint64(out[12:], uint64(h.XminTime))
	binary.LittleEndian.PutUint64(out[20:], uint64(h.XmaxTime))
}

// DecodeArchive splits an archive record into header and payload.
func DecodeArchive(rec []byte) (ArchiveHeader, []byte, bool) {
	if len(rec) < archiveHeaderSize {
		return ArchiveHeader{}, nil, false
	}
	h := ArchiveHeader{
		Rel:      binary.LittleEndian.Uint32(rec[0:]),
		Xmin:     txn.XID(binary.LittleEndian.Uint32(rec[4:])),
		Xmax:     txn.XID(binary.LittleEndian.Uint32(rec[8:])),
		XminTime: int64(binary.LittleEndian.Uint64(rec[12:])),
		XmaxTime: int64(binary.LittleEndian.Uint64(rec[20:])),
	}
	return h, rec[archiveHeaderSize:], true
}

// Vacuum is the vacuum cleaner: it removes obsolete records from r —
// records deleted by a transaction that committed before horizon, and
// records inserted by aborted transactions — compacts the pages it
// touched, and (in VacuumArchive mode) moves the obsolete-but-committed
// history into archive under archX. onArchive, if non-nil, is told the
// archive TID, payload and deleter commit time of each copy so callers
// can index the archive; onRemove, if non-nil, is told each TID freed
// so callers can purge index entries.
//
// Each archive copy is built once, straight from the page item.
func (r *Relation) Vacuum(horizon txn.XID, mode VacuumMode, archive *Relation, archX txn.XID,
	onArchive func(atid TID, payload []byte, xmaxTime int64), onRemove func(tid TID, payload []byte)) (VacuumStats, error) {
	var stats VacuumStats
	n, err := r.pool.NPages(r.OID)
	if err != nil {
		return stats, err
	}
	archiving := mode == VacuumArchive && archive != nil
	type victim struct {
		slot     int
		item     []byte // archive record item (header space, archive header, payload); nil if not archived
		payload  []byte // the record payload (aliases item when archived)
		xmaxTime int64
	}
	var victims []victim
	for pn := uint32(0); pn < n; pn++ {
		f, err := r.pool.Get(r.OID, pn)
		if err != nil {
			return stats, err
		}
		f.Lock()
		if !f.Data.Initialized() {
			f.Unlock()
			r.pool.Release(f, false)
			continue
		}
		stats.Pages++
		victims = victims[:0]
		for s := 0; s < f.Data.NumSlots(); s++ {
			item := f.Data.Item(s)
			if item == nil {
				continue
			}
			stats.Scanned++
			xmin := txn.XID(binary.LittleEndian.Uint32(item[0:]))
			xmax := txn.XID(binary.LittleEndian.Uint32(item[4:]))
			if r.mgr.StatusOf(xmin) == txn.StatusAborted {
				// Aborted insert: never archived.
				victims = append(victims, victim{slot: s, payload: clonePayload(item, onRemove != nil)})
				continue
			}
			if xmax == txn.InvalidXID || xmax >= horizon {
				continue
			}
			switch r.mgr.StatusOf(xmax) {
			case txn.StatusCommitted:
				if !archiving {
					victims = append(victims, victim{slot: s, payload: clonePayload(item, onRemove != nil)})
					continue
				}
				h := ArchiveHeader{
					Rel:      uint32(r.OID),
					Xmin:     xmin,
					Xmax:     xmax,
					XminTime: r.mgr.CommitTime(xmin),
					XmaxTime: r.mgr.CommitTime(xmax),
				}
				body := item[recordHeader:]
				rec := make([]byte, recordHeader+archiveHeaderSize+len(body))
				putArchiveHeader(rec[recordHeader:], h)
				copy(rec[recordHeader+archiveHeaderSize:], body)
				victims = append(victims, victim{s, rec, rec[recordHeader+archiveHeaderSize:], h.XmaxTime})
			case txn.StatusAborted:
				// Deleter aborted: clear the stale xmax stamp.
				binary.LittleEndian.PutUint32(item[4:], 0)
			}
		}
		dirty := false
		for _, v := range victims {
			f.Data.Delete(v.slot)
			dirty = true
			stats.Removed++
		}
		if dirty {
			stats.Reclaimed += f.Data.Compact()
		}
		f.Unlock()
		r.pool.Release(f, dirty)

		for _, v := range victims {
			tid := TID{pn, uint16(v.slot)}
			if onRemove != nil {
				onRemove(tid, v.payload)
			}
			if v.item == nil {
				continue
			}
			atid, err := archive.insertItem(archX, v.item)
			if err != nil {
				return stats, err
			}
			stats.Archived++
			if onArchive != nil {
				onArchive(atid, v.payload, v.xmaxTime)
			}
		}
	}
	return stats, nil
}

// clonePayload copies a page item's payload out from under the latch,
// or returns nil when no one will look at it.
func clonePayload(item []byte, want bool) []byte {
	if !want {
		return nil
	}
	return append([]byte(nil), item[recordHeader:]...)
}
