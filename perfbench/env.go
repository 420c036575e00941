package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/wire"
)

// env is one open volume: an in-memory device behind the probe
// wrapper, the engine with the library's default flush policy, and,
// for client/server workloads, a loopback server.
type env struct {
	dev  *probeDev
	db   *core.DB
	srv  *wire.Server
	addr string
	cl   []*wire.Client
	eng  *query.Engine
}

// openEnv opens a fresh volume. Only the buffer count departs from
// core's defaults; no background writer, group-commit window, wait
// sampler or metrics-history recorder is started.
func openEnv(buffers int, withServer, traced bool, slowRead time.Duration) (*env, error) {
	dev := newProbeDev(device.NewMem(nil, 0), traced, slowRead)
	sw := device.NewSwitch()
	sw.Register(dev)
	db, err := core.Open(sw, core.Options{Buffers: buffers})
	if err != nil {
		return nil, fmt.Errorf("open volume: %w", err)
	}
	e := &env{dev: dev, db: db, eng: query.New(db)}
	if withServer {
		e.srv = wire.NewServer(db)
		e.srv.SetLogf(func(f string, a ...any) { fmt.Fprintf(os.Stderr, "server: "+f+"\n", a...) })
		if e.addr, err = e.srv.Listen("127.0.0.1:0"); err != nil {
			_ = db.Close()
			return nil, fmt.Errorf("listen: %w", err)
		}
	}
	return e, nil
}

func (e *env) dial(owner string) (*wire.Client, error) {
	c, err := wire.Dial(e.addr, owner)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	e.cl = append(e.cl, c)
	return c, nil
}

func (e *env) close() {
	for _, c := range e.cl {
		_ = c.Close()
	}
	if e.srv != nil {
		_ = e.srv.Close()
	}
	_ = e.db.Close()
}

// relInfo is one row of the inv_relations catalog: heap, index or (for
// the archive) archive, with its page count and tuple counts.
type relInfo struct {
	kind              string
	pages, live, dead int64
}

func (e *env) relations() (map[device.OID]relInfo, error) {
	v, ok := e.db.SysViews().Lookup("inv_relations")
	if !ok {
		return nil, fmt.Errorf("inv_relations: not registered")
	}
	rows, err := v.Rows()
	if err != nil {
		return nil, fmt.Errorf("inv_relations: %w", err)
	}
	col := map[string]int{}
	for i, c := range v.Columns() {
		col[c.Name] = i
	}
	out := make(map[device.OID]relInfo, len(rows))
	for _, r := range rows {
		ri := relInfo{
			kind:  r[col["kind"]].S,
			pages: r[col["pages"]].I,
			live:  r[col["live"]].I,
			dead:  r[col["dead"]].I,
		}
		if r[col["name"]].S == "archive" {
			ri.kind = "archive"
		}
		out[device.OID(r[col["oid"]].I)] = ri
	}
	return out, nil
}

// snap is what the benchmark reads from the program's public surfaces
// at a phase boundary.
type snap struct {
	at     time.Time
	pool   buffer.PoolStats
	reg    obs.Snapshot
	dev    devCounts
	alloc  uint64
	numGC  uint32
	gcCPU  float64
	allCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (e *env) snapshot() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return snap{
		at:     time.Now(),
		pool:   e.db.Pool().Stats(),
		reg:    e.db.Obs().Snapshot(),
		dev:    e.dev.counts(),
		alloc:  ms.TotalAlloc,
		numGC:  ms.NumGC,
		gcCPU:  cpuSamples[0].Value.Float64(),
		allCPU: cpuSamples[1].Value.Float64(),
	}
}

func counter(s obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// hist sums count and total over every histogram whose name has the
// prefix and suffix.
func hist(s obs.Snapshot, prefix, suffix string) (count, sumNs int64) {
	for _, h := range s.Hists {
		if strings.HasPrefix(h.Name, prefix) && strings.HasSuffix(h.Name, suffix) {
			count += h.Count
			sumNs += h.SumNs
		}
	}
	return count, sumNs
}

// spanAgg sums the per-layer charges of a class of request spans.
type spanAgg struct {
	n, wall, lock, load, write, force int64
	hits, misses                      int64
}

func (a *spanAgg) add(d obs.SpanData) {
	a.n++
	a.wall += d.WallNs
	a.lock += d.LockWaitNs
	a.load += d.BufLoadNs
	a.write += d.BufWriteNs
	a.force += d.CommitNs
	a.hits += d.BufHits
	a.misses += d.BufMisses
}

func (a *spanAgg) addScaled(o *spanAgg, k int64) {
	a.n += k * o.n
	a.wall += k * o.wall
	a.lock += k * o.lock
	a.load += k * o.load
	a.write += k * o.write
	a.force += k * o.force
	a.hits += k * o.hits
	a.misses += k * o.misses
}

// Span classes. Wire workloads classify server request spans: a
// mutation, or a span in an explicit transaction (its txn began with a
// begin request), is a write; query requests are queries; stat requests
// on bulk are the hot-file stats; the rest are reads. The single-process workload opens
// its own spans and names the class exactly.
const (
	clsRead = iota
	clsWrite
	clsAsof
	clsQuery
	clsHot
	clsOther
	nClasses
)

// mutations are the wire ops that change the file system even outside
// an explicit transaction, such as meta's renames, unlinks and mkdirs.
var mutations = map[string]bool{
	"creat": true, "write": true, "truncate": true, "mkdir": true, "unlink": true, "rename": true,
}

// tracer collects request spans in the traced run.
type tracer struct {
	mu       sync.Mutex
	cls      [nClasses]spanAgg
	explicit map[uint64]bool
	lastSeq  uint64
	lost     int64
	statsHot bool // stat requests are hot-file stats (bulk)
	calls    [nClasses]int64

	stop chan struct{}
	wg   sync.WaitGroup
}

func newTracer(statsHot bool) *tracer {
	return &tracer{explicit: make(map[uint64]bool), statsHot: statsHot}
}

// startDrain follows the flight recorder's ring from its current end,
// draining it often enough that no span is overwritten unread.
func (t *tracer) startDrain() {
	for _, ev := range obs.Flight().Events() {
		t.lastSeq = ev.Seq
	}
	t.stop = make(chan struct{})
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				t.drain()
				return
			case <-tick.C:
				t.drain()
			}
		}
	}()
}

func (t *tracer) stopDrain() {
	if t.stop != nil {
		close(t.stop)
		t.wg.Wait()
		t.stop = nil
	}
}

func (t *tracer) drain() {
	evs := obs.Flight().Events()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range evs {
		if ev.Seq <= t.lastSeq {
			continue
		}
		if ev.Seq != t.lastSeq+1 {
			t.lost += int64(ev.Seq - t.lastSeq - 1)
		}
		t.lastSeq = ev.Seq
		if ev.Kind != "span" || ev.Span == nil {
			continue
		}
		d := *ev.Span
		c := clsRead
		switch {
		case d.Op == "begin":
			t.explicit[d.Txn] = true
			c = clsWrite
		case d.Op == "commit" || d.Op == "abort" || mutations[d.Op] || (d.Txn != 0 && t.explicit[d.Txn]):
			c = clsWrite
		case d.Op == "query":
			c = clsQuery
		case d.Op == "stat" && t.statsHot:
			c = clsHot
		}
		t.cls[c].add(d)
	}
}

// spanEvery is the single-process workload's span sampling interval.
// Binding a span makes every charge site look up the goroutine id, which
// costs far more than the engine's own work on the page-heavy
// time-travel reads, so only every spanEvery-th call of a class runs
// under a span, and its charges count spanEvery times.
const spanEvery = 32

// within runs f, under a span of class c on every spanEvery-th call of
// that class, the way the wire server brackets a request; only the
// single-process workload calls it.
func (t *tracer) within(c int, op string, f func() error) error {
	if t == nil {
		return f()
	}
	t.calls[c]++
	if t.calls[c]%spanEvery != 0 {
		return f()
	}
	sp := obs.NewSpan(op)
	obs.Activate(sp)
	t0 := time.Now()
	err := f()
	sp.WallNs.Store(int64(time.Since(t0)))
	obs.Activate(nil)
	var one spanAgg
	one.add(sp.Data())
	t.mu.Lock()
	t.cls[c].addScaled(&one, spanEvery)
	t.mu.Unlock()
	return err
}

func (t *tracer) total() spanAgg {
	var a spanAgg
	for i := range t.cls {
		a.addScaled(&t.cls[i], 1)
	}
	return a
}
