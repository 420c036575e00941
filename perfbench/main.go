// Command perfbench is Inversion's wall-clock benchmark. It runs one
// named workload against the real engine on in-memory devices, checks
// every result against a model derived from the seed, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (a
// separate traced run), ending with one JSON line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload meta|bulk|history --seed N --seconds S --trace 0|1
//
// See perfbench/NOTES.md for the device, the flush policy and the
// metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
)

type workload interface {
	setup(r *runCtx) error
	warm(r *runCtx) error
	loop(r *runCtx) error
	dataBytes() int64 // data-set size the pool guard compares
	liveBytes() int64 // live user bytes at the end of the run
}

type spec struct {
	name    string
	buffers int
	wire    bool
	// opsPerSec sizes the fixed amount of work: a run does
	// opsPerSec*seconds user ops, about --seconds of work on the seed
	// code. The amount depends only on the arguments, so both sides of
	// a comparison do identical work and build identical history.
	opsPerSec int
	// finalVacuum runs one vacuum pass after the timed loop (history
	// vacuums inside its loop instead).
	finalVacuum bool
	// setupReps is how many times a run sets up: setup_s is their
	// median, and the last volume is the one measured.
	setupReps int
	// poolMultiple, when positive, requires the data set to be at least
	// this many times the running pool's capacity and the timed phase
	// to take buffer misses; otherwise the timed phase must take none.
	poolMultiple int
	make         func() workload
}

var specs = map[string]spec{
	"meta":    {name: "meta", buffers: metaBuffers, wire: true, opsPerSec: 420, setupReps: 2, finalVacuum: true, make: func() workload { return &metaWL{} }},
	"bulk":    {name: "bulk", buffers: bulkBuffers, wire: true, opsPerSec: 220, setupReps: 1, finalVacuum: true, poolMultiple: 4, make: func() workload { return &bulkWL{} }},
	"history": {name: "history", buffers: histBuffers, opsPerSec: 1800, setupReps: 3, make: func() workload { return &historyWL{} }},
}

// numProcs is how many child processes split a run's work.
const numProcs = 3

type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	slowRead time.Duration // self-test: delay added to every page read
	wrongGen bool          // self-test: expect the wrong generation on time-travel reads
	child    int           // this process's number, or -1 for the parent
}

// runCtx is what a workload sees of one run.
type runCtx struct {
	e        *env
	seed     int64
	quota    int
	tr       *tracer
	wrongGen bool
	recs     []*rec
}

// outcome is everything one run measured.
type outcome struct {
	sp         spec
	setupS     []float64
	phase      time.Duration
	rec        rec
	before     snap
	after      snap
	vacuumed   obs.Snapshot // registry after the final vacuum
	rels       map[device.OID]relInfo
	poolPages  int // capacity of the running pool
	devPages   int64
	heapBytes  uint64
	live       int64
	data       int64
	tr         *tracer
	guardError string
}

func main() {
	var o opts
	var trace int
	var slowUs int
	flag.StringVar(&o.workload, "workload", "", "workload: meta, bulk or history")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "work to do, in seconds of the seed code's throughput")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.IntVar(&o.child, "child", -1, "internal: run as child process number n and print its raw report")
	flag.IntVar(&slowUs, "slow-read-us", 0, "self-test: add this many microseconds to every device page read")
	flag.BoolVar(&o.wrongGen, "wrong-gen", false, "self-test: expect the wrong generation on time-travel reads")
	flag.Parse()
	o.trace = trace != 0
	o.slowRead = time.Duration(slowUs) * time.Microsecond
	code, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// report is one process's result: the metrics of its run, their sample
// counts and notes, and what its checks found.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	Order     []string              `json:"order"`
	Samples   map[string]int64      `json:"samples"`
	Sums      map[string]bool       `json:"sums"`
	Pools     map[string]*pooled    `json:"pools"`
	Notes     map[string]string     `json:"notes"`
	Sizes     string                `json:"sizes"`
	Problems  []string              `json:"problems"`
}

// run executes the workload and prints the report; the exit code is 0
// only when every check passed. The work is split across numProcs child
// processes run one after another, and each metric is the median of
// theirs: how fast a process runs varies from one process to the next
// by more than within one, so a median over processes is steadier than
// one process doing all the work.
func run(w io.Writer, o opts) (int, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	if o.child >= 0 {
		rep, err := measureReport(sp, o)
		if err != nil {
			return 1, err
		}
		if err := json.NewEncoder(w).Encode(rep); err != nil {
			return 1, err
		}
		return 0, nil
	}
	var reps []report
	for i := 0; i < numProcs; i++ {
		rep, err := runChild(o, i)
		if err != nil {
			return 1, fmt.Errorf("process %d: %w", i, err)
		}
		reps = append(reps, rep)
	}

	correct, attempted, failed := true, int64(0), int64(0)
	var problems []string
	for _, r := range reps {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
		problems = append(problems, r.Problems...)
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v  processes %d\n", sp.name, o.seed, o.seconds, o.trace, len(reps))
	fmt.Fprintln(w, reps[len(reps)-1].Sizes)
	fmt.Fprintf(w, "%-34s %14s  %-8s %9s  %s\n", "metric", "value", "unit", "samples", "")
	metrics := map[string]jsonMetric{}
	for _, name := range reps[0].Order {
		var vals []float64
		var n int64
		for _, r := range reps {
			vals = append(vals, r.Metrics[name].Value)
			n += r.Samples[name]
		}
		m := jsonMetric{Value: median(vals), Unit: reps[0].Metrics[name].Unit}
		note := reps[0].Notes[name]
		switch p := reps[0].Pools[name]; {
		case p != nil:
			all := &pooled{Tail: p.Tail, Div: p.Div}
			for _, r := range reps {
				all.NS = append(all.NS, r.Pools[name].NS...)
			}
			m.Value, note = all.value(len(all.NS) / len(reps))
		case reps[0].Sums[name]:
			m.Value = 0
			for _, v := range vals {
				m.Value += v
			}
		}
		fmt.Fprintf(w, "%-34s %14.6g  %-8s %9d  %s\n", name, m.Value, m.Unit, n, note)
		if !strings.HasPrefix(note, "table only") {
			metrics[name] = m
		}
	}
	for _, p := range problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(w, string(b))
	if !correct {
		return 1, fmt.Errorf("%d of %d ops failed their checks; %d problems reported", failed, attempted, len(problems))
	}
	return 0, nil
}

// runChild runs this program as child process i on its share of the
// work, waits for it, and decodes its report.
func runChild(o opts, i int) (report, error) {
	var rep report
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	args := []string{
		"--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", map[bool]string{true: "1", false: "0"}[o.trace],
		"--child", fmt.Sprint(i), "--slow-read-us", fmt.Sprint(o.slowRead.Microseconds()),
	}
	if o.wrongGen {
		args = append(args, "--wrong-gen")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, fmt.Errorf("decode report: %w", err)
	}
	return rep, nil
}

// measureReport runs child process o.child's share of the work, a
// numProcs-th of it, on inputs from the seed and the child number.
func measureReport(sp spec, o opts) (report, error) {
	o.seed = o.seed*numProcs + int64(o.child)
	var rep report
	var res, base *outcome
	var err error
	if o.trace {
		// The traced run's overhead is measured against an untraced run
		// of the same work in the same process.
		if base, err = measure(sp, o, false); err != nil {
			return rep, err
		}
	}
	if res, err = measure(sp, o, o.trace); err != nil {
		return rep, err
	}
	var ms []metric
	if o.trace {
		ms = layerMetrics(res, base)
	} else {
		ms = endToEnd(res)
	}
	rep = report{
		Correct:   res.rec.failed == 0 && res.guardError == "",
		Attempted: res.rec.attempted,
		Failed:    res.rec.failed,
		Metrics:   map[string]jsonMetric{},
		Samples:   map[string]int64{},
		Notes:     map[string]string{},
		Sums:      map[string]bool{},
		Pools:     map[string]*pooled{},
		Sizes: fmt.Sprintf("data set %.1f MB, live user data %.1f MB, pool %d pages (%.1f MB), device %.1f MB",
			mb(res.data), mb(res.live), res.poolPages, mb(int64(res.poolPages)*pageSize), mb(res.devPages*pageSize)),
		Problems: res.rec.errors,
	}
	if res.guardError != "" {
		rep.Problems = append(rep.Problems, "guard broken: "+res.guardError)
	}
	for _, m := range ms {
		rep.Order = append(rep.Order, m.name)
		rep.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		rep.Samples[m.name] = m.n
		rep.Notes[m.name] = m.note
		rep.Sums[m.name] = m.sum
		if m.pool != nil {
			rep.Pools[m.name] = m.pool
		}
	}
	return rep, nil
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// measure sets the workload up setupReps times, then runs the timed
// loop on the last volume and collects what it measured.
func measure(sp spec, o opts, traced bool) (*outcome, error) {
	res := &outcome{sp: sp}
	var r *runCtx
	var wl workload
	for i := 0; i < sp.setupReps; i++ {
		if r != nil {
			r.e.close()
		}
		runtime.GC()
		t0 := time.Now()
		e, err := openEnv(sp.buffers, sp.wire, traced, o.slowRead)
		if err != nil {
			return nil, err
		}
		wl = sp.make()
		r = &runCtx{e: e, seed: o.seed, wrongGen: o.wrongGen}
		if err := wl.setup(r); err != nil {
			e.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer r.e.close()
	if err := wl.warm(r); err != nil {
		return nil, err
	}
	r.quota = sp.opsPerSec * o.seconds / numProcs
	if r.quota < 1 {
		r.quota = 1
	}
	if traced {
		r.tr = newTracer(sp.name == "bulk")
		if sp.wire {
			r.tr.startDrain()
		}
	}
	runtime.GC()
	res.before = r.e.snapshot()
	t0 := time.Now()
	err := wl.loop(r)
	res.phase = time.Since(t0)
	for _, rc := range r.recs {
		res.rec.merge(rc)
	}
	if err != nil {
		return nil, err
	}
	// The guards read the running pool's capacity and what the timed
	// phase did, not the size asked for: an engine that caps or ignores
	// Options.Buffers, or puts another cache beside the pool, shows here.
	res.poolPages = r.e.db.Pool().Capacity()
	misses := r.e.db.Pool().Stats().Misses - res.before.pool.Misses
	switch {
	case sp.poolMultiple == 0 && misses != 0:
		res.guardError = fmt.Sprintf("%s must run from a warm pool, but the timed phase took %d buffer misses", sp.name, misses)
	case sp.poolMultiple > 0 && wl.dataBytes() < int64(sp.poolMultiple*res.poolPages)*pageSize:
		res.guardError = fmt.Sprintf("%s's data set (%.1f MB) must be at least %d times the pool (%.1f MB)",
			sp.name, mb(wl.dataBytes()), sp.poolMultiple, mb(int64(res.poolPages)*pageSize))
	case sp.poolMultiple > 0 && misses == 0:
		res.guardError = fmt.Sprintf("%s must run over the cache, but the timed phase took no buffer misses", sp.name)
	}
	res.after = r.e.snapshot()
	if r.tr != nil {
		r.tr.stopDrain()
		res.tr = r.tr
	}
	// Relation statistics are read before the final vacuum, so they
	// show the dead versions the timed phase left.
	if res.rels, err = r.e.relations(); err != nil {
		return nil, err
	}
	if sp.finalVacuum {
		runtime.GC()
		t0 := time.Now()
		if _, err := r.e.db.Vacuum(); err != nil {
			res.rec.fail("vacuum: %v", err)
		} else {
			res.rec.vacN++
			res.rec.vacNs += int64(time.Since(t0))
		}
	}
	res.vacuumed = r.e.db.Obs().Snapshot()
	res.live = wl.liveBytes()
	res.data = wl.dataBytes()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.devPages = r.e.dev.totalPages()
	res.heapBytes = m.HeapAlloc
	return res, nil
}

// metric is one reported figure with its sample count. A run split
// across processes reports the median of the processes' values, except
// for a summed metric (their total) and a pooled timing.
type metric struct {
	name  string
	unit  string
	value float64
	n     int64
	note  string
	sum   bool
	pool  *pooled
}

func mk(name, unit string, value float64, n int64, note string) metric {
	return metric{name: name, unit: unit, value: value, n: n, note: note}
}

// pooled carries a timing's samples, so a run split across processes
// takes its percentiles over all of them. The tail percentile is the one
// each process's share supports (ten samples beyond it), so over the
// pooled samples it has three times that many beyond it.
type pooled struct {
	NS   []int64 `json:"ns"`
	Tail bool    `json:"tail"`
	Div  float64 `json:"div"` // nanoseconds per reported unit
}

// value is the pooled median or tail, where each of the processes
// contributed perProc samples.
func (p *pooled) value(perProc int) (float64, string) {
	l := latency{ns: p.NS}
	if !p.Tail {
		return l.quantile(0.5) / p.Div, ""
	}
	q := tailQ(perProc)
	return l.quantile(q) / p.Div, fmt.Sprintf("p%g of %d", roundQ(q*100), len(l.ns))
}

// timing reports l's median, or its tail, in units of div nanoseconds.
func timing(name, unit string, l *latency, tail bool, div float64) metric {
	p := &pooled{NS: l.ns, Tail: tail, Div: div}
	v, note := p.value(len(l.ns))
	return metric{name: name, unit: unit, value: v, n: int64(len(l.ns)), note: note, pool: p}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func roundQ(q float64) float64 { return float64(int(q*10+0.5)) / 10 }

// endToEnd computes the metrics a user of the file system would see.
func endToEnd(res *outcome) []metric {
	r := &res.rec
	ops := float64(r.ops)
	var failedFrac float64
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	heap := float64(int64(res.heapBytes)-res.devPages*pageSize) / (1 << 20)
	return []metric{
		mk("setup_s", "s", median(res.setupS), int64(len(res.setupS)), "median of setups"),
		mk("ops_per_s", "1/s", ops/res.phase.Seconds(), r.ops, fmt.Sprintf("over %.2fs", res.phase.Seconds())),
		timing("read_p50_us", "us", &r.read, false, 1e3),
		timing("read_p99_us", "us", &r.read, true, 1e3),
		timing("write_p50_us", "us", &r.write, false, 1e3),
		timing("write_p99_us", "us", &r.write, true, 1e3),
		mk("read_mb_per_s", "MB/s", r.rx.mbPerS(), int64(r.rx.n), fmt.Sprintf("%.1f MB read whole", mb(r.rx.bytes))),
		mk("write_mb_per_s", "MB/s", r.wx.mbPerS(), int64(r.wx.n), fmt.Sprintf("%.1f MB written whole", mb(r.wx.bytes))),
		timing("asof_p50_us", "us", &r.asof, false, 1e3),
		timing("asof_p99_us", "us", &r.asof, true, 1e3),
		timing("query_p50_ms", "ms", &r.query, false, 1e6),
		{name: "vacuum_s", unit: "s", value: float64(r.vacNs) / 1e9, n: int64(r.vacN), note: "total over passes", sum: true},
		mk("failed_frac", "ratio", failedFrac, r.attempted, "table only: zero when correct; the JSON line carries failed/attempted"),
		mk("space_amp", "ratio", float64(res.devPages*pageSize)/float64(res.live), res.devPages, "device bytes per live user byte"),
		mk("alloc_kb_per_op", "KB", float64(res.after.alloc-res.before.alloc)/1024/ops, r.ops, ""),
		mk("heap_mb", "MB", heap, 1, "live heap less device pages"),
	}
}

// layerMetrics computes the per-layer table from the traced run; base
// is the untraced run of the same work.
func layerMetrics(res, base *outcome) []metric {
	r := &res.rec
	b, a := &res.before, &res.after
	ops := float64(r.ops)
	if ops == 0 {
		ops = 1
	}
	per := func(x int64) float64 { return float64(x) / ops }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	tr := res.tr
	all := tr.total()

	requests := counter(a.reg, "wire.requests") - counter(b.reg, "wire.requests")
	bytesIO := counter(a.reg, "wire.bytes_in") + counter(a.reg, "wire.bytes_out") -
		counter(b.reg, "wire.bytes_in") - counter(b.reg, "wire.bytes_out")
	_, handledA := hist(a.reg, "wire.op.", "_ns")
	_, handledB := hist(b.reg, "wire.op.", "_ns")
	handled := handledA - handledB
	var wireOverhead float64
	if requests > 0 {
		wireOverhead = float64(r.opNs-handled) / float64(requests) / 1e3
	}

	forcesA, forceNsA := hist(a.reg, "txn.commit_force_ns", "")
	forcesB, forceNsB := hist(b.reg, "txn.commit_force_ns", "")
	forces, forceNs := forcesA-forcesB, forceNsA-forceNsB
	waitsA, _ := hist(a.reg, "txn.lock_wait_ns", "")
	waitsB, _ := hist(b.reg, "txn.lock_wait_ns", "")
	_, wbNsA := hist(a.reg, "buffer.", "writeback_ns")
	_, wbNsB := hist(b.reg, "buffer.", "writeback_ns")
	_, loadNsA := hist(a.reg, "buffer.", "load_ns")
	_, loadNsB := hist(b.reg, "buffer.", "load_ns")

	hits := a.pool.Hits - b.pool.Hits
	misses := a.pool.Misses - b.pool.Misses

	// Device page traffic split by relation kind, from inv_relations.
	var heapW, idxR, idxW int64
	for oid, n := range a.dev.wr {
		n -= b.dev.wr[oid]
		switch res.rels[oid].kind {
		case "heap", "archive":
			heapW += n
		case "index":
			idxW += n
		}
	}
	for oid, n := range a.dev.rd {
		n -= b.dev.rd[oid]
		if res.rels[oid].kind == "index" {
			idxR += n
		}
	}
	var heapPages, idxPages, archivePages, live, dead int64
	for _, ri := range res.rels {
		switch ri.kind {
		case "heap":
			heapPages += ri.pages
			live += ri.live
			dead += ri.dead
		case "archive":
			archivePages += ri.pages
			heapPages += ri.pages
		case "index":
			idxPages += ri.pages
		}
	}
	userBytes := float64(res.live)

	wr, rd, as, q, hot := &tr.cls[clsWrite], &tr.cls[clsRead], &tr.cls[clsAsof], &tr.cls[clsQuery], &tr.cls[clsHot]
	charged := all.lock + all.load + all.write + all.force
	// Reads, as the span classes count them. A wire span cannot tell an
	// asof request from a plain one, so on the wire the read class holds
	// the time-travel reads too; bulk's hot-file stats are a class of
	// their own.
	reads := float64(len(r.read.ns) + r.rx.n)
	if res.sp.wire {
		reads += float64(len(r.asof.ns) - int(r.hot))
	}
	// Coverage: the share of client time inside user ops that lands on
	// a measured boundary (wire gap, lock wait, buffer load and write,
	// commit force); the remainder is core self time, inferred.
	wireGap := float64(r.opNs - handled)
	if !res.sp.wire {
		wireGap = 0
	}
	coverage := ratio(wireGap+float64(charged), float64(r.opNs))
	baseOps := float64(base.rec.ops) / base.phase.Seconds()
	tracedOps := ops / res.phase.Seconds()

	devW := a.dev.writes - b.dev.writes
	return []metric{
		mk("wire.round_trips_per_op", "count", per(requests), requests, ""),
		mk("wire.overhead_us_per_req", "us", wireOverhead, requests, "client time less server handling"),
		mk("wire.bytes_per_op", "B", per(bytesIO), requests, ""),
		mk("core.self_us_per_op", "us", float64(all.wall-charged)/1e3/ops, all.n, "handling less lock, load, write and force"),
		mk("core.pages_touched_per_write", "count", ratio(float64(wr.hits+wr.misses), float64(len(r.write.ns)+r.wx.n)), wr.n, ""),
		mk("core.pages_touched_per_read", "count", ratio(float64(rd.hits+rd.misses), reads), rd.n, ""),
		mk("core.pages_touched_per_asof", "count", ratio(float64(as.hits+as.misses), float64(len(r.asof.ns))), as.n, "spans named asof only (history)"),
		mk("query.server_ms_per_query", "ms", ratio(float64(q.wall)/1e6, float64(q.n)), q.n, ""),
		mk("query.pages_per_row", "count", ratio(float64(q.hits+q.misses), float64(r.rows)), r.rows, ""),
		mk("txn.commit_force_us", "us", ratio(float64(forceNs)/1e3, float64(forces)), forces, ""),
		mk("txn.log_syncs_per_commit", "count", ratio(float64(a.dev.syncs-b.dev.syncs), float64(forces)), forces, "device syncs per forced commit"),
		mk("txn.lock_wait_us_per_read", "us", ratio(float64(rd.lock)/1e3, reads), rd.n, ""),
		mk("txn.lock_waits_per_1k_ops", "count", per(waitsA-waitsB)*1000, waitsA-waitsB, ""),
		mk("buffer.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), hits+misses, ""),
		mk("buffer.hot_hit_ratio", "ratio", ratio(float64(hot.hits), float64(hot.hits+hot.misses)), hot.n, "hot-file stats (bulk)"),
		mk("buffer.misses_per_op", "count", per(misses), misses, ""),
		mk("buffer.load_us_per_op", "us", per(loadNsA-loadNsB)/1e3, misses, ""),
		mk("buffer.evictions_per_op", "count", per(a.pool.Evictions-b.pool.Evictions), a.pool.Evictions-b.pool.Evictions, ""),
		mk("buffer.writebacks_per_op", "count", per(a.pool.Writebacks-b.pool.Writebacks), a.pool.Writebacks-b.pool.Writebacks, ""),
		mk("buffer.write_us_per_op", "us", per(wbNsA-wbNsB)/1e3, a.pool.Writebacks-b.pool.Writebacks, ""),
		mk("heap.pages_written_per_op", "count", per(heapW), heapW, ""),
		mk("heap.dead_tuple_frac", "ratio", ratio(float64(dead), float64(live+dead)), live+dead, "at end"),
		mk("heap.archive_pages", "count", float64(archivePages), 1, "at end"),
		mk("heap.space_bytes_per_user_byte", "ratio", float64(heapPages*pageSize)/userBytes, heapPages, "at end, archive included"),
		mk("vacuum.tuples_archived", "count", float64(counter(res.vacuumed, "vacuum.tuples_archived")-counter(b.reg, "vacuum.tuples_archived")), int64(r.vacN), ""),
		mk("vacuum.bytes_reclaimed", "B", float64(counter(res.vacuumed, "vacuum.bytes_reclaimed")-counter(b.reg, "vacuum.bytes_reclaimed")), int64(r.vacN), ""),
		mk("btree.pages_read_per_op", "count", per(idxR), idxR, "device reads"),
		mk("btree.pages_written_per_op", "count", per(idxW), idxW, "device writes"),
		mk("btree.space_bytes_per_user_byte", "ratio", float64(idxPages*pageSize)/userBytes, idxPages, "at end"),
		mk("device.reads_per_op", "count", per(a.dev.reads-b.dev.reads), a.dev.reads-b.dev.reads, ""),
		mk("device.writes_per_op", "count", per(devW), devW, ""),
		mk("device.syncs_per_op", "count", per(a.dev.syncs-b.dev.syncs), a.dev.syncs-b.dev.syncs, ""),
		mk("device.busy_us_per_op", "us", per(a.dev.busyNs-b.dev.busyNs)/1e3, a.dev.reads+a.dev.writes-b.dev.reads-b.dev.writes, ""),
		mk("device.write_bytes_per_user_byte", "ratio", ratio(float64(devW*pageSize), float64(r.written)), devW, ""),
		mk("runtime.gc_cycles_per_1k_ops", "count", per(int64(a.numGC-b.numGC))*1000, int64(a.numGC-b.numGC), ""),
		mk("runtime.gc_cpu_frac", "ratio", ratio(a.gcCPU-b.gcCPU, a.allCPU-b.allCPU), 1, ""),
		mk("bench.trace_overhead", "ratio", ratio(baseOps, tracedOps)-1, r.ops, "untraced over traced ops_per_s, less one"),
		mk("bench.trace_coverage", "ratio", coverage, all.n, fmt.Sprintf("%d flight events lost", tr.lost)),
	}
}
