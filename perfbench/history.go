package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
)

// history: single process, an in-process Session and no wire. The file
// set is overwritten whole in generations; between overwrites the loop
// reads current files and reads, stats and lists them as of instants
// drawn uniformly from past commits, and vacuum runs every few
// generations so those reads increasingly reach the archive. The pool
// holds the whole volume.
const (
	histLarge      = 4
	histLargeSize  = 64 << 10
	histSmall      = 48
	histSmallSize  = 512
	histNewSize    = 1024
	histReadsPer   = 128 // read ops between generations
	histVacEvery   = 4   // generations between vacuum passes
	histQueryEvery = 64
	histBuffers    = 32768
)

type histVer struct {
	t   int64
	gen uint32
}

type historyWL struct {
	seed    int64
	s       *core.Session
	vers    [histLarge + histSmall][]histVer
	times   []int64   // every commit instant, setup included
	created []histVer // each /h/nNNNNN file: the instant it was created by, and its generation
	live    int64
	crcs    map[uint64]uint32
}

func histPath(f int) string {
	if f < histLarge {
		return fmt.Sprintf("/h/L%02d", f)
	}
	return fmt.Sprintf("/h/S%02d", f-histLarge)
}

func histSize(f int) int {
	if f < histLarge {
		return histLargeSize
	}
	return histSmallSize
}

func (w *historyWL) dataBytes() int64 { return w.live }
func (w *historyWL) liveBytes() int64 { return w.live }

// fileCRCs are the page checksums of file f at generation gen.
func (w *historyWL) fileCRC(scratch []byte, f int, gen uint32) uint32 {
	k := uint64(f)<<32 | uint64(gen)
	if c, ok := w.crcs[k]; ok {
		return c
	}
	b := scratch[:histSize(f)]
	w.fill(b, f, gen)
	c := crc(b)
	w.crcs[k] = c
	return c
}

func (w *historyWL) fill(b []byte, f int, gen uint32) {
	for p := 0; p*pageSize < len(b); p++ {
		end := (p + 1) * pageSize
		if end > len(b) {
			end = len(b)
		}
		fillBlock(b[p*pageSize:end], w.seed, uint32(f), uint32(p), gen)
	}
}

func (w *historyWL) genAt(f int, t int64) uint32 {
	h := w.vers[f]
	i := sort.Search(len(h), func(i int) bool { return h[i].t > t })
	return h[i-1].gen
}

func (w *historyWL) entriesAt(t int64) int {
	return histLarge + histSmall + w.createdBy(t)
}

// createdBy is how many /h/nNNNNN files had been created by instant t.
func (w *historyWL) createdBy(t int64) int {
	return sort.Search(len(w.created), func(i int) bool { return w.created[i].t > t })
}

func newPath(gen uint32) string { return fmt.Sprintf("/h/n%05d", gen) }

func (w *historyWL) setup(r *runCtx) error {
	w.seed = r.seed
	w.crcs = make(map[uint64]uint32)
	w.s = r.e.db.NewSession("history")
	if err := w.s.Mkdir("/h"); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	buf := make([]byte, histLargeSize)
	for f := range w.vers {
		b := buf[:histSize(f)]
		w.fill(b, f, 0)
		if err := w.s.WriteFile(histPath(f), b, core.CreateOpts{}); err != nil {
			return fmt.Errorf("write %s: %w", histPath(f), err)
		}
		w.vers[f] = []histVer{{time.Now().UnixNano(), 0}}
		w.live += int64(len(b))
	}
	w.times = []int64{time.Now().UnixNano()}
	return nil
}

// warm reads every file once and checks what setup wrote.
func (w *historyWL) warm(r *runCtx) error {
	scratch := make([]byte, histLargeSize)
	for f := range w.vers {
		b, err := w.s.ReadFile(histPath(f))
		if err != nil {
			return fmt.Errorf("warm read: %w", err)
		}
		if crc(b) != w.fileCRC(scratch, f, 0) {
			return fmt.Errorf("warm: %s: wrong content", histPath(f))
		}
	}
	return nil
}

func (w *historyWL) loop(r *runCtx) error {
	rc := &rec{}
	r.recs = append(r.recs, rc)
	rng := newRand(r.seed, 5)
	kinds := newPercentDeck(rng)
	ones := make([]int, len(w.vers))
	for i := range ones {
		ones[i] = 1
	}
	// Each kind of read has its own file deck and instant sequence, so
	// every kind covers the files and the past evenly.
	var files [5]*deck
	var instants [5]*golden
	for b := range files {
		files[b] = newDeck(rng, ones...)
		instants[b] = newGolden(rng)
	}
	tr := r.tr
	buf := make([]byte, histLargeSize)
	scratch := make([]byte, histLargeSize)
	nf := len(w.vers)
	ops := 0
	archived := 0 // commit instants covered by the last vacuum
	for gen := uint32(1); ops < r.quota; gen++ {
		// Vacuum opens every few generations, so the run ends with the
		// dead versions of its last generations still in the heap.
		if gen > 1 && (gen-1)%histVacEvery == 0 {
			t0 := time.Now()
			err := tr.within(clsOther, "vacuum", func() error {
				_, err := r.e.db.Vacuum()
				return err
			})
			if err != nil {
				rc.fail("vacuum: %v", err)
			} else {
				rc.vacN++
				rc.vacNs += int64(time.Since(t0))
				archived = len(w.times)
			}
		}
		// Overwrite the whole file set, in a seeded order.
		for _, f := range rng.Perm(nf) {
			b := buf[:histSize(f)]
			w.fill(b, f, gen)
			t0 := time.Now()
			err := tr.within(clsWrite, "write", func() error {
				return w.s.WriteFile(histPath(f), b, core.CreateOpts{})
			})
			if err != nil {
				rc.fail("write %s: %v", histPath(f), err)
				continue
			}
			if f < histLarge {
				rc.wx.add(int64(len(b)), rc.done(nil, t0))
			} else {
				rc.done(&rc.write, t0)
			}
			rc.written += int64(len(b))
			t := time.Now().UnixNano()
			w.vers[f] = append(w.vers[f], histVer{t, gen})
			w.times = append(w.times, t)
			ops++
		}
		// One new small file per generation, so listings change over time.
		np := newPath(gen)
		fillBlock(buf[:histNewSize], w.seed, 100000+gen, 0, 0)
		t0 := time.Now()
		err := tr.within(clsWrite, "create", func() error {
			return w.s.WriteFile(np, buf[:histNewSize], core.CreateOpts{})
		})
		if err != nil {
			rc.fail("create %s: %v", np, err)
		} else {
			rc.done(&rc.write, t0)
			rc.written += histNewSize
			w.live += histNewSize
			t := time.Now().UnixNano()
			w.created = append(w.created, histVer{t, gen})
			w.times = append(w.times, t)
		}
		ops++

		for k := 0; k < histReadsPer; k++ {
			ops++
			if ops%histQueryEvery == 0 {
				var rows int
				t0 := time.Now()
				err := tr.within(clsQuery, "query", func() error {
					res, err := r.e.eng.Run(w.s, `retrieve (filename) where dir(file) = "/h"`)
					if err == nil {
						rows = len(res.Rows)
					}
					return err
				})
				if err != nil {
					rc.fail("query: %v", err)
					continue
				}
				rc.done(&rc.query, t0)
				rc.rows += int64(rows)
				want := histLarge + histSmall + len(w.created)
				rc.check(rows == want, "query /h: %d rows, want %d", rows, want)
				continue
			}
			// Time travel targets instants before the last vacuum, whose
			// versions it moved to the archive (any instant before the first).
			past := w.times
			if archived > 0 {
				past = w.times[:archived]
			}
			op := kinds.next()
			b := readKind(op)
			w.readOp(r, rc, op, files[b].next(), past[instants[b].pick(len(past))], scratch)
		}
	}
	return nil
}

// readKind maps a percent card to its kind of read, as readOp splits
// them.
func readKind(op int) int {
	switch {
	case op < 40:
		return 0
	case op < 65:
		return 1
	case op < 90:
		return 2
	case op < 95:
		return 3
	}
	return 4
}

// readOp runs one read of the mix: op picks the kind, f the file and t
// the past instant for time-travel reads.
func (w *historyWL) readOp(r *runCtx, rc *rec, op, f int, t int64, scratch []byte) {
	tr := r.tr
	p := histPath(f)
	switch {
	case op < 40: // current whole-file read
		var b []byte
		t0 := time.Now()
		err := tr.within(clsRead, "read", func() (err error) {
			b, err = w.s.ReadFile(p)
			return err
		})
		if err != nil {
			rc.fail("read %s: %v", p, err)
			return
		}
		d := rc.done(nil, t0)
		if f < histLarge {
			rc.rx.add(int64(len(b)), d)
		} else {
			rc.read.add(d)
		}
		cur := w.vers[f][len(w.vers[f])-1].gen
		rc.check(len(b) == histSize(f) && crc(b) == w.fileCRC(scratch, f, cur), "read %s: wrong content", p)
	case op < 65: // current stat
		var a core.FileAttr
		t0 := time.Now()
		err := tr.within(clsRead, "stat", func() (err error) {
			a, err = w.s.Stat(p)
			return err
		})
		if err != nil {
			rc.fail("stat %s: %v", p, err)
			return
		}
		rc.done(&rc.read, t0)
		rc.check(a.Size == int64(histSize(f)), "stat %s: size %d", p, a.Size)
	case op < 90: // whole-file read as of a past commit
		var b []byte
		t0 := time.Now()
		err := tr.within(clsAsof, "read_asof", func() (err error) {
			b, err = w.s.ReadFileAsOf(p, t)
			return err
		})
		if err != nil {
			rc.fail("read %s asof %d: %v", p, t, err)
			return
		}
		rc.done(&rc.asof, t0)
		g := w.genAt(f, t)
		if r.wrongGen {
			g++
		}
		rc.check(len(b) == histSize(f) && crc(b) == w.fileCRC(scratch, f, g), "read %s asof %d: not generation %d", p, t, g)
	case op < 95: // stat as of a past commit
		// Overwrites keep a file's size, and mtime follows size changes
		// only, so a file-set file's attributes are the same in every
		// generation. Half the stats therefore go to the per-generation
		// files either side of t: the last one created by t must exist
		// as of t, and the first one created after t must not.
		exists := true
		if f%2 == 1 {
			i := w.createdBy(t)
			if j := i - 1 + f/2%2; j >= 0 && j < len(w.created) {
				p, exists = newPath(w.created[j].gen), j < i
			}
		}
		var a core.FileAttr
		t0 := time.Now()
		err := tr.within(clsAsof, "stat_asof", func() (err error) {
			a, err = w.s.StatAsOf(p, t)
			return err
		})
		switch {
		case err == nil:
			rc.done(&rc.asof, t0)
			want := int64(histNewSize)
			if p == histPath(f) {
				want = int64(histSize(f))
			}
			rc.check(exists && a.Size == want && a.CTime <= t && a.MTime <= t,
				"stat %s asof %d: size %d ctime %d mtime %d, want size %d by then (exists %v)", p, t, a.Size, a.CTime, a.MTime, want, exists)
		case errors.Is(err, core.ErrNotExist):
			rc.done(&rc.asof, t0)
			rc.check(!exists, "stat %s asof %d: does not exist, want it to", p, t)
		default:
			rc.fail("stat %s asof %d: %v", p, t, err)
		}
	default: // list the directory as of a past commit
		var n int
		t0 := time.Now()
		err := tr.within(clsAsof, "readdir_asof", func() error {
			ents, err := w.s.ReadDirAsOf("/h", t)
			n = len(ents)
			return err
		})
		if err != nil {
			rc.fail("readdir /h asof %d: %v", t, err)
			return
		}
		rc.done(&rc.asof, t0)
		want := w.entriesAt(t)
		rc.check(n == want, "readdir /h asof %d: %d entries, want %d", t, n, want)
	}
}
