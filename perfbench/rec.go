package main

import (
	"fmt"
	"sort"
	"time"
)

// latency holds one op class's samples in nanoseconds.
type latency struct{ ns []int64 }

func (l *latency) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }

// quantile returns the q-quantile (nearest rank) in nanoseconds.
func (l *latency) quantile(q float64) float64 {
	if len(l.ns) == 0 {
		return 0
	}
	s := append([]int64(nil), l.ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

// tailQ is the quantile reported as the tail of n samples: the 99th
// percentile, or, with fewer than 1000 samples, the highest percentile
// that still has ten samples beyond it.
func tailQ(n int) float64 {
	if n == 0 {
		return 0
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// xfer accumulates whole-file transfers: their count, user bytes and
// each one's rate.
type xfer struct {
	n     int
	bytes int64
	rates []float64 // MB/s of each transfer
}

func (x *xfer) add(bytes int64, d time.Duration) {
	x.n++
	x.bytes += bytes
	x.rates = append(x.rates, float64(bytes)/(1<<20)/d.Seconds())
}

// mbPerS is the median transfer's rate in MB/s (MB = 2^20 bytes): one
// transfer slowed by a collector pause moves a median far less than a
// total.
func (x *xfer) mbPerS() float64 { return median(x.rates) }

// rec is one load goroutine's record of the timed phase. Goroutines
// never share a rec; the runner merges them afterwards.
type rec struct {
	read, write, asof, query latency
	rx, wx                   xfer

	ops       int64 // user ops completed (vacuum passes are not ops)
	attempted int64 // user ops attempted, checks included
	failed    int64 // ops that errored or returned wrong results
	opNs      int64 // client-side time inside user ops
	written   int64 // user bytes written

	vacN  int
	vacNs int64

	rows   int64 // rows returned by queries
	hot    int64 // bulk's hot-file stats, also counted in read
	errors []string
}

// done records a completed op of class l that started at t0.
func (r *rec) done(l *latency, t0 time.Time) time.Duration {
	d := time.Since(t0)
	if l != nil {
		l.add(d)
	}
	r.ops++
	r.attempted++
	r.opNs += int64(d)
	return d
}

// fail records an op that errored or returned a wrong result.
func (r *rec) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.errors) < 8 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// check counts a mismatch found in an op that already completed.
func (r *rec) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.failed++
	if len(r.errors) < 8 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

func (r *rec) merge(o *rec) {
	r.read.ns = append(r.read.ns, o.read.ns...)
	r.write.ns = append(r.write.ns, o.write.ns...)
	r.asof.ns = append(r.asof.ns, o.asof.ns...)
	r.query.ns = append(r.query.ns, o.query.ns...)
	r.rx.n += o.rx.n
	r.rx.bytes += o.rx.bytes
	r.rx.rates = append(r.rx.rates, o.rx.rates...)
	r.wx.n += o.wx.n
	r.wx.bytes += o.wx.bytes
	r.wx.rates = append(r.wx.rates, o.wx.rates...)
	r.ops += o.ops
	r.attempted += o.attempted
	r.failed += o.failed
	r.opNs += o.opNs
	r.written += o.written
	r.vacN += o.vacN
	r.vacNs += o.vacNs
	r.rows += o.rows
	r.hot += o.hot
	for _, e := range o.errors {
		if len(r.errors) < 8 {
			r.errors = append(r.errors, e)
		}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
