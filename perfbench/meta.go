package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// meta: client/server over loopback with two connections. A mutator
// creates small files, renames, unlinks and makes directories across
// 16 directories, one commit per op; a reader stats, lists, reads small
// files, runs POSTQUEL retrieves and stats paths as of past instants.
// The pool holds the whole volume.
const (
	metaDirs       = 16
	metaStablePer  = 16 // setup files per directory, never mutated
	metaBlobs      = 8
	metaBlobSize   = 64 << 10
	metaBlobEvery  = 16  // mutator: every n-th op rewrites a blob
	metaQueryEvery = 100 // mutator: every n-th op pauses for a retrieve
	metaBuffers    = 16384
)

type metaFile struct {
	id   uint32
	size int
	crc  uint32
}

// countAt is one entry of a per-directory entry-count history: the
// count holds from mutator op idx on.
type countAt struct {
	idx int64
	n   int
}

// asofFact is a state the mutator left at an instant: path exists (or
// not) with that size, as of t.
type asofFact struct {
	t      int64
	path   string
	exists bool
	dir    bool
	size   int64
}

// metaQuery asks the reader for a retrieve over directory d, which
// holds want entries: the mutator waits until it is served, so every
// retrieve sees the namespace at a fixed point of the mutator's work.
type metaQuery struct {
	d, want int
}

type genAt struct {
	idx int64
	gen uint32
}

type metaWL struct {
	seed   int64
	stable []string
	files  map[string]metaFile // stable files

	// Shared between mutator and reader.
	mu      sync.Mutex
	counts  [metaDirs][]countAt
	facts   []asofFact
	blobGen [metaBlobs][]genAt
	done    atomic.Int64 // mutator ops completed
	queries chan metaQuery
	served  chan struct{}

	// Mutator-private.
	churn   []string
	churnF  map[string]metaFile
	nextID  uint32
	curCnt  [metaDirs]int
	live    int64
	blobCur [metaBlobs]uint32
}

func metaDir(i int) string { return fmt.Sprintf("/d%02d", i) }

func dirIndex(path string) int {
	var d int
	fmt.Sscanf(path, "/d%02d/", &d)
	return d
}

func isNotExist(err error) bool {
	return err != nil && strings.Contains(err.Error(), core.ErrNotExist.Error())
}

func (w *metaWL) dataBytes() int64 { return w.live }
func (w *metaWL) liveBytes() int64 { return w.live }

func (w *metaWL) setup(r *runCtx) error {
	w.seed = r.seed
	w.files = make(map[string]metaFile)
	w.churnF = make(map[string]metaFile)
	rng := newRand(r.seed, 1)
	c, err := r.e.dial("setup")
	if err != nil {
		return err
	}
	buf := make([]byte, metaBlobSize)
	for d := 0; d < metaDirs; d++ {
		if err := c.Mkdir(metaDir(d)); err != nil {
			return fmt.Errorf("mkdir: %w", err)
		}
		for k := 0; k < metaStablePer; k++ {
			f := metaFile{id: uint32(d*metaStablePer + k), size: 512 + rng.Intn(3585)}
			p := fmt.Sprintf("%s/s%02d", metaDir(d), k)
			fillBlock(buf[:f.size], w.seed, f.id, 0, 0)
			f.crc = crc(buf[:f.size])
			if err := putFile(c, p, buf[:f.size], true); err != nil {
				return err
			}
			w.files[p] = f
			w.stable = append(w.stable, p)
			w.live += int64(f.size)
		}
		w.curCnt[d] = metaStablePer
		w.counts[d] = []countAt{{0, metaStablePer}}
	}
	if err := c.Mkdir("/blob"); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	for b := 0; b < metaBlobs; b++ {
		fillBlock(buf, w.seed, 1000+uint32(b), 0, 0)
		if err := putFile(c, fmt.Sprintf("/blob/b%d", b), buf, true); err != nil {
			return err
		}
		w.blobGen[b] = []genAt{{0, 0}}
		w.live += metaBlobSize
	}
	w.nextID = 10000
	return nil
}

// warm reads the whole data set once, so the timed phase starts with
// every page cached, and checks what setup wrote.
func (w *metaWL) warm(r *runCtx) error {
	c := r.e.cl[0]
	buf := make([]byte, metaBlobSize)
	for _, p := range w.stable {
		f := w.files[p]
		n, err := getFile(c, p, buf, 0)
		if err != nil {
			return err
		}
		if n != f.size || crc(buf[:n]) != f.crc {
			return fmt.Errorf("warm: %s: wrong content", p)
		}
	}
	for d := 0; d < metaDirs; d++ {
		ents, err := c.ReadDir(metaDir(d), 0)
		if err != nil {
			return fmt.Errorf("warm readdir: %w", err)
		}
		if len(ents) != metaStablePer {
			return fmt.Errorf("warm: %s lists %d entries, want %d", metaDir(d), len(ents), metaStablePer)
		}
	}
	for b := 0; b < metaBlobs; b++ {
		if _, err := getFile(c, fmt.Sprintf("/blob/b%d", b), buf, 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *metaWL) loop(r *runCtx) error {
	mut, err := r.e.dial("mutator")
	if err != nil {
		return err
	}
	rd, err := r.e.dial("reader")
	if err != nil {
		return err
	}
	// The reader does more, cheaper ops; the split keeps both
	// connections busy for most of the phase.
	qm := r.quota * 2 / 5
	qr := r.quota - qm
	rm, rr := &rec{}, &rec{}
	w.queries = make(chan metaQuery)
	w.served = make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.mutator(r, mut, qm, rm)
	}()
	go func() {
		defer wg.Done()
		w.reader(r, rd, qr, rr)
	}()
	wg.Wait()
	r.recs = append(r.recs, rm, rr)
	return nil
}

// publishCounts records the entry counts op idx will leave, before it
// is issued, so a concurrent reader that sees its effect finds it in the
// model.
func (w *metaWL) publishCounts(idx int64, dirs ...int) {
	w.mu.Lock()
	for _, d := range dirs {
		w.counts[d] = append(w.counts[d], countAt{idx, w.curCnt[d]})
	}
	w.mu.Unlock()
}

func (w *metaWL) addFacts(fs ...asofFact) {
	w.mu.Lock()
	w.facts = append(w.facts, fs...)
	w.mu.Unlock()
}

func (w *metaWL) mutator(r *runCtx, c *wire.Client, quota int, rc *rec) {
	rng := newRand(r.seed, 2)
	kinds := newPercentDeck(rng)
	buf := make([]byte, metaBlobSize)
	nsub := 0
	defer close(w.queries)
	for i := 1; i <= quota; i++ {
		idx := int64(i)
		if i%metaQueryEvery == 0 {
			d := rng.Intn(metaDirs)
			w.queries <- metaQuery{d, w.curCnt[d]}
			<-w.served
		}
		if i%metaBlobEvery == 0 {
			b := rng.Intn(metaBlobs)
			g := w.blobCur[b] + 1
			fillBlock(buf, w.seed, 1000+uint32(b), 0, g)
			w.mu.Lock()
			w.blobGen[b] = append(w.blobGen[b], genAt{idx, g})
			w.mu.Unlock()
			p := fmt.Sprintf("/blob/b%d", b)
			t0 := time.Now()
			if err := putFile(c, p, buf, false); err != nil {
				rc.fail("blob rewrite %s: %v", p, err)
			} else {
				rc.wx.add(metaBlobSize, rc.done(nil, t0))
				rc.written += metaBlobSize
				w.blobCur[b] = g
				w.addFacts(asofFact{t: time.Now().UnixNano(), path: p, exists: true, size: metaBlobSize})
			}
			w.done.Store(idx)
			continue
		}
		op := kinds.next()
		if op >= 35 && op < 90 && len(w.churn) < 64 {
			op = 0
		}
		switch {
		case op < 35: // create a small file: creat+write+close, one commit
			d := rng.Intn(metaDirs)
			f := metaFile{id: w.nextID, size: 256 + rng.Intn(3841)}
			w.nextID++
			p := fmt.Sprintf("%s/c%06d", metaDir(d), f.id)
			fillBlock(buf[:f.size], w.seed, f.id, 0, 0)
			w.curCnt[d]++
			w.publishCounts(idx, d)
			t0 := time.Now()
			if err := putFile(c, p, buf[:f.size], true); err != nil {
				rc.fail("create %s: %v", p, err)
				break
			}
			rc.done(&rc.write, t0)
			rc.written += int64(f.size)
			w.churn = append(w.churn, p)
			w.churnF[p] = f
			w.live += int64(f.size)
			w.addFacts(asofFact{t: time.Now().UnixNano(), path: p, exists: true, size: int64(f.size)})
		case op < 55: // rename a churn file into a random directory
			j := rng.Intn(len(w.churn))
			old := w.churn[j]
			f := w.churnF[old]
			d0, d := dirIndex(old), rng.Intn(metaDirs)
			p := fmt.Sprintf("%s/r%06d_%d", metaDir(d), f.id, i)
			w.curCnt[d0]--
			w.curCnt[d]++
			w.publishCounts(idx, d0, d)
			t0 := time.Now()
			if err := c.Rename(old, p); err != nil {
				rc.fail("rename %s: %v", old, err)
				break
			}
			rc.done(&rc.write, t0)
			delete(w.churnF, old)
			w.churnF[p] = f
			w.churn[j] = p
			t := time.Now().UnixNano()
			w.addFacts(asofFact{t: t, path: old}, asofFact{t: t, path: p, exists: true, size: int64(f.size)})
		case op < 90: // unlink a churn file
			j := rng.Intn(len(w.churn))
			p := w.churn[j]
			d := dirIndex(p)
			w.curCnt[d]--
			w.publishCounts(idx, d)
			t0 := time.Now()
			if err := c.Unlink(p); err != nil {
				rc.fail("unlink %s: %v", p, err)
				break
			}
			rc.done(&rc.write, t0)
			w.live -= int64(w.churnF[p].size)
			delete(w.churnF, p)
			w.churn[j] = w.churn[len(w.churn)-1]
			w.churn = w.churn[:len(w.churn)-1]
			w.addFacts(asofFact{t: time.Now().UnixNano(), path: p})
		default: // make a subdirectory
			d := rng.Intn(metaDirs)
			nsub++
			p := fmt.Sprintf("%s/m%06d", metaDir(d), nsub)
			w.curCnt[d]++
			w.publishCounts(idx, d)
			t0 := time.Now()
			if err := c.Mkdir(p); err != nil {
				rc.fail("mkdir %s: %v", p, err)
				break
			}
			rc.done(&rc.write, t0)
			w.addFacts(asofFact{t: time.Now().UnixNano(), path: p, exists: true, dir: true})
		}
		w.done.Store(idx)
	}
}

// countsBetween is every entry count directory d held while mutator
// ops c0 through c1+1 were visible.
func (w *metaWL) countsBetween(d int, c0, c1 int64) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.counts[d]
	var out []int
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].idx > c1+1 {
			continue
		}
		out = append(out, h[i].n)
		if h[i].idx <= c0 {
			break
		}
	}
	return out
}

func (w *metaWL) blobGensBetween(b int, c0, c1 int64) []uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.blobGen[b]
	var out []uint32
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].idx > c1+1 {
			continue
		}
		out = append(out, h[i].gen)
		if h[i].idx <= c0 {
			break
		}
	}
	return out
}

func containsInt(v []int, x int) bool {
	for _, y := range v {
		if y == x {
			return true
		}
	}
	return false
}

func (w *metaWL) reader(r *runCtx, c *wire.Client, quota int, rc *rec) {
	rng := newRand(r.seed, 3)
	kinds := newPercentDeck(rng)
	past := newGolden(rng)
	buf := make([]byte, metaBlobSize)
	scratch := make([]byte, metaBlobSize)
	query := func(q metaQuery) {
		defer func() { w.served <- struct{}{} }()
		t0 := time.Now()
		res, err := c.Query(fmt.Sprintf(`retrieve (filename) where dir(file) = "%s"`, metaDir(q.d)))
		if err != nil {
			rc.fail("query: %v", err)
			return
		}
		rc.done(&rc.query, t0)
		rc.rows += int64(len(res.Rows))
		rc.check(len(res.Rows) == q.want, "query %s: %d rows, want %d", metaDir(q.d), len(res.Rows), q.want)
	}
	// Once its own ops are done the reader keeps serving retrieves
	// until the mutator finishes.
	defer func() {
		for q := range w.queries {
			query(q)
		}
	}()
	for i := 1; i <= quota; i++ {
		select {
		case q, ok := <-w.queries:
			if ok {
				query(q)
			}
		default:
		}
		op := kinds.next()
		switch {
		case op < 25: // stat a stable file
			p := w.stable[rng.Intn(len(w.stable))]
			t0 := time.Now()
			a, err := c.Stat(p, 0)
			if err != nil {
				rc.fail("stat %s: %v", p, err)
				continue
			}
			rc.done(&rc.read, t0)
			rc.check(a.Size == int64(w.files[p].size), "stat %s: size %d want %d", p, a.Size, w.files[p].size)
		case op < 35: // stat a directory
			d := metaDir(rng.Intn(metaDirs))
			t0 := time.Now()
			a, err := c.Stat(d, 0)
			if err != nil {
				rc.fail("stat %s: %v", d, err)
				continue
			}
			rc.done(&rc.read, t0)
			rc.check(a.IsDir(), "stat %s: not a directory", d)
		case op < 50: // list a directory
			d := rng.Intn(metaDirs)
			c0 := w.done.Load()
			t0 := time.Now()
			ents, err := c.ReadDir(metaDir(d), 0)
			if err != nil {
				rc.fail("readdir %s: %v", metaDir(d), err)
				continue
			}
			rc.done(&rc.read, t0)
			want := w.countsBetween(d, c0, w.done.Load())
			rc.check(containsInt(want, len(ents)), "readdir %s: %d entries, model allows %v", metaDir(d), len(ents), want)
		case op < 70: // read a whole small file
			p := w.stable[rng.Intn(len(w.stable))]
			f := w.files[p]
			t0 := time.Now()
			n, err := getFile(c, p, buf, 0)
			if err != nil {
				rc.fail("read %s: %v", p, err)
				continue
			}
			rc.done(&rc.read, t0)
			rc.check(n == f.size && crc(buf[:n]) == f.crc, "read %s: wrong content", p)
		case op < 95: // stat a path as of an instant the mutator left
			w.mu.Lock()
			nf := len(w.facts)
			var fact asofFact
			if nf > 0 {
				fact = w.facts[past.pick(nf)]
			}
			w.mu.Unlock()
			if nf == 0 {
				fact = asofFact{t: time.Now().UnixNano(), path: "/blob/b0", exists: true, size: metaBlobSize}
			}
			t0 := time.Now()
			a, err := c.Stat(fact.path, fact.t)
			switch {
			case err == nil:
				rc.done(&rc.asof, t0)
				rc.check(fact.exists && a.IsDir() == fact.dir && (fact.dir || a.Size == fact.size),
					"stat %s asof %d: got size %d dir %v, want %+v", fact.path, fact.t, a.Size, a.IsDir(), fact)
			case isNotExist(err):
				rc.done(&rc.asof, t0)
				rc.check(!fact.exists, "stat %s asof %d: does not exist, want %+v", fact.path, fact.t, fact)
			default:
				rc.fail("stat %s asof: %v", fact.path, err)
			}
		default: // read a whole blob
			b := rng.Intn(metaBlobs)
			p := fmt.Sprintf("/blob/b%d", b)
			c0 := w.done.Load()
			t0 := time.Now()
			n, err := getFile(c, p, buf, 0)
			if err != nil {
				rc.fail("read %s: %v", p, err)
				continue
			}
			rc.rx.add(int64(n), rc.done(nil, t0))
			ok := false
			got := crc(buf[:n])
			for _, g := range w.blobGensBetween(b, c0, w.done.Load()) {
				if n == metaBlobSize && got == blockCRC(scratch, w.seed, 1000+uint32(b), 0, g, n) {
					ok = true
					break
				}
			}
			rc.check(ok, "read %s: content matches no generation visible during the read", p)
		}
	}
}

// putFile writes a whole file in one transaction: create (or open an
// existing one for writing), write, close, commit.
func putFile(c *wire.Client, path string, data []byte, create bool) error {
	if err := c.PBegin(); err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	var fd wire.FD
	var err error
	if create {
		fd, err = c.PCreat(path, core.CreateOpts{})
	} else {
		fd, err = c.POpen(path, true, 0)
	}
	if err == nil {
		_, err = c.PWrite(fd, data)
		if cerr := c.PClose(fd); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return errors.Join(fmt.Errorf("write %s: %w", path, err), c.PAbort())
	}
	if err := c.PCommit(); err != nil {
		return fmt.Errorf("commit %s: %w", path, err)
	}
	return nil
}

// getFile reads a whole file (as of ts when non-zero) into buf with one
// read request, returning its length.
func getFile(c *wire.Client, path string, buf []byte, ts int64) (int, error) {
	fd, err := c.POpen(path, false, ts)
	if err != nil {
		return 0, fmt.Errorf("open %s: %w", path, err)
	}
	n, err := c.PRead(fd, buf)
	if cerr := c.PClose(fd); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", path, err)
	}
	return n, nil
}
