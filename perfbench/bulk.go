package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/device"
	"repro/internal/wire"
)

// bulk: client/server, one connection, a file set several times the
// buffer pool. Whole-file sequential page-sized reads (Fig. 5), random
// page reads and overwrites, whole-file rewrites (Fig. 6), stats of
// small hot files, reads as of past instants and a periodic retrieve.
const (
	bulkFiles      = 48
	bulkPages      = 128 // 1 MB files
	bulkHot        = 16
	bulkHotSize    = 4096
	bulkBuffers    = 1024
	bulkQueryEvery = 64
	pageSize       = device.PageSize
)

// pageVer is one committed version of a page: generation gen from
// instant t on.
type pageVer struct {
	t   int64
	gen uint32
}

type bulkWL struct {
	seed  int64
	hist  [bulkFiles][bulkPages][]pageVer
	times []int64 // every instant a write committed by, setup included
	crcs  map[uint64]uint32
}

func bulkPath(f int) string { return fmt.Sprintf("/data/f%02d", f) }
func hotPath(h int) string  { return fmt.Sprintf("/hot/h%02d", h) }

func (w *bulkWL) dataBytes() int64 { return bulkFiles * bulkPages * pageSize }
func (w *bulkWL) liveBytes() int64 { return w.dataBytes() + bulkHot*bulkHotSize }

// pageCRC is the checksum of a page version's content, memoised.
func (w *bulkWL) pageCRC(scratch []byte, f, p int, gen uint32) uint32 {
	k := uint64(f)<<48 | uint64(p)<<32 | uint64(gen)
	if c, ok := w.crcs[k]; ok {
		return c
	}
	c := blockCRC(scratch, w.seed, uint32(f), uint32(p), gen, pageSize)
	w.crcs[k] = c
	return c
}

func (w *bulkWL) cur(f, p int) uint32 {
	h := w.hist[f][p]
	return h[len(h)-1].gen
}

// genAt is the generation of page p of file f as of instant t.
func (w *bulkWL) genAt(f, p int, t int64) uint32 {
	h := w.hist[f][p]
	i := sort.Search(len(h), func(i int) bool { return h[i].t > t })
	return h[i-1].gen
}

func (w *bulkWL) setup(r *runCtx) error {
	w.seed = r.seed
	w.crcs = make(map[uint64]uint32)
	c, err := r.e.dial("setup")
	if err != nil {
		return err
	}
	for _, d := range []string{"/data", "/hot"} {
		if err := c.Mkdir(d); err != nil {
			return fmt.Errorf("mkdir: %w", err)
		}
	}
	data := make([]byte, bulkPages*pageSize)
	for f := 0; f < bulkFiles; f++ {
		for p := 0; p < bulkPages; p++ {
			fillBlock(data[p*pageSize:(p+1)*pageSize], w.seed, uint32(f), uint32(p), 0)
		}
		if err := putFile(c, bulkPath(f), data, true); err != nil {
			return err
		}
	}
	for h := 0; h < bulkHot; h++ {
		fillBlock(data[:bulkHotSize], w.seed, 500+uint32(h), 0, 0)
		if err := putFile(c, hotPath(h), data[:bulkHotSize], true); err != nil {
			return err
		}
	}
	t := time.Now().UnixNano()
	for f := range w.hist {
		for p := range w.hist[f] {
			w.hist[f][p] = []pageVer{{t, 0}}
		}
	}
	w.times = []int64{t}
	return nil
}

func (w *bulkWL) warm(r *runCtx) error { return nil }

func (w *bulkWL) loop(r *runCtx) error {
	c, err := r.e.dial("bulk")
	if err != nil {
		return err
	}
	rc := &rec{}
	r.recs = append(r.recs, rc)
	rng := newRand(r.seed, 4)
	kinds := newPercentDeck(rng)
	past := newGolden(rng)
	buf := make([]byte, pageSize)
	scratch := make([]byte, pageSize)
	for i := 1; i <= r.quota; i++ {
		if i%bulkQueryEvery == 0 {
			t0 := time.Now()
			res, err := c.Query(`retrieve (filename) where dir(file) = "/hot"`)
			if err != nil {
				rc.fail("query: %v", err)
				continue
			}
			rc.done(&rc.query, t0)
			rc.rows += int64(len(res.Rows))
			rc.check(len(res.Rows) == bulkHot, "query /hot: %d rows, want %d", len(res.Rows), bulkHot)
			continue
		}
		op := kinds.next()
		f := rng.Intn(bulkFiles)
		p := rng.Intn(bulkPages)
		switch {
		case op < 4: // whole-file sequential read, one page per request
			t0 := time.Now()
			bad, err := w.readPages(c, f, 0, bulkPages, 0, buf, scratch, r.wrongGen)
			if err != nil {
				rc.fail("read %s: %v", bulkPath(f), err)
				continue
			}
			rc.rx.add(bulkPages*pageSize, rc.done(nil, t0))
			rc.check(bad < 0, "read %s: page %d has wrong content", bulkPath(f), bad)
		case op < 34: // random page read
			t0 := time.Now()
			bad, err := w.readPages(c, f, p, 1, 0, buf, scratch, r.wrongGen)
			if err != nil {
				rc.fail("read %s page %d: %v", bulkPath(f), p, err)
				continue
			}
			rc.done(&rc.read, t0)
			rc.check(bad < 0, "read %s page %d: wrong content", bulkPath(f), p)
		case op < 54: // random page overwrite, one commit
			g := w.cur(f, p) + 1
			fillBlock(buf, w.seed, uint32(f), uint32(p), g)
			t0 := time.Now()
			if err := writePages(c, f, p, 1, func(int) []byte { return buf }); err != nil {
				rc.fail("overwrite %s page %d: %v", bulkPath(f), p, err)
				continue
			}
			rc.done(&rc.write, t0)
			rc.written += pageSize
			t := time.Now().UnixNano()
			w.hist[f][p] = append(w.hist[f][p], pageVer{t, g})
			w.times = append(w.times, t)
		case op < 56: // whole-file rewrite, one commit
			gens := make([]uint32, bulkPages)
			for q := range gens {
				gens[q] = w.cur(f, q) + 1
			}
			t0 := time.Now()
			err := writePages(c, f, 0, bulkPages, func(q int) []byte {
				fillBlock(buf, w.seed, uint32(f), uint32(q), gens[q])
				return buf
			})
			if err != nil {
				rc.fail("rewrite %s: %v", bulkPath(f), err)
				continue
			}
			rc.wx.add(bulkPages*pageSize, rc.done(nil, t0))
			rc.written += bulkPages * pageSize
			t := time.Now().UnixNano()
			for q := range gens {
				w.hist[f][q] = append(w.hist[f][q], pageVer{t, gens[q]})
			}
			w.times = append(w.times, t)
		case op < 86: // stat a hot file
			h := rng.Intn(bulkHot)
			t0 := time.Now()
			a, err := c.Stat(hotPath(h), 0)
			if err != nil {
				rc.fail("stat %s: %v", hotPath(h), err)
				continue
			}
			rc.done(&rc.read, t0)
			rc.hot++
			rc.check(a.Size == bulkHotSize, "stat %s: size %d", hotPath(h), a.Size)
		default: // read a page as of a past write's instant
			t := w.times[past.pick(len(w.times))]
			t0 := time.Now()
			bad, err := w.readPages(c, f, p, 1, t, buf, scratch, r.wrongGen)
			if err != nil {
				rc.fail("read %s page %d asof %d: %v", bulkPath(f), p, t, err)
				continue
			}
			rc.done(&rc.asof, t0)
			rc.check(bad < 0, "read %s page %d asof %d: wrong content", bulkPath(f), p, t)
		}
	}
	return nil
}

// readPages reads n pages of file f from page p (as of ts when
// non-zero) with one page-sized read request each, and returns the
// first page whose content is wrong, or -1.
func (w *bulkWL) readPages(c *wire.Client, f, p, n int, ts int64, buf, scratch []byte, wrongGen bool) (int, error) {
	fd, err := c.POpen(bulkPath(f), false, ts)
	if err != nil {
		return 0, err
	}
	if p > 0 {
		if _, err := c.PLseek(fd, int64(p)*pageSize, wire.SeekSet); err != nil {
			_ = c.PClose(fd)
			return 0, err
		}
	}
	bad := -1
	for q := p; q < p+n; q++ {
		m, err := c.PRead(fd, buf)
		if err != nil {
			_ = c.PClose(fd)
			return 0, err
		}
		g := w.cur(f, q)
		if ts != 0 {
			g = w.genAt(f, q, ts)
		}
		if wrongGen && ts != 0 {
			g++
		}
		if bad < 0 && (m != pageSize || crc(buf) != w.pageCRC(scratch, f, q, g)) {
			bad = q
		}
	}
	return bad, c.PClose(fd)
}

// writePages overwrites n pages of file f from page p in one
// transaction, one page-sized write request each.
func writePages(c *wire.Client, f, p, n int, page func(q int) []byte) error {
	if err := c.PBegin(); err != nil {
		return err
	}
	err := func() error {
		fd, err := c.POpen(bulkPath(f), true, 0)
		if err != nil {
			return err
		}
		if p > 0 {
			if _, err := c.PLseek(fd, int64(p)*pageSize, wire.SeekSet); err != nil {
				return err
			}
		}
		for q := p; q < p+n; q++ {
			if _, err := c.PWrite(fd, page(q)); err != nil {
				return err
			}
		}
		return c.PClose(fd)
	}()
	if err != nil {
		_ = c.PAbort()
		return err
	}
	return c.PCommit()
}
