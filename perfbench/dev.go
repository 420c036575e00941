package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
)

// probeDev wraps the in-memory device manager. It always tracks how
// many pages each relation holds (for space_amp and heap_mb). When
// traced it also counts and times every call and splits page traffic
// by relation, and when slowRead is set it adds a fixed busy delay to
// every ReadPage (the layer-detection self-test).
type probeDev struct {
	inner    device.Manager
	traced   bool
	slowRead time.Duration

	mu    sync.Mutex
	pages map[device.OID]uint32
	rd    map[device.OID]int64 // traced: page reads per relation
	wr    map[device.OID]int64 // traced: page writes per relation

	reads, writes, syncs atomic.Int64
	busyNs               atomic.Int64
}

func newProbeDev(inner device.Manager, traced bool, slowRead time.Duration) *probeDev {
	return &probeDev{
		inner:    inner,
		traced:   traced,
		slowRead: slowRead,
		pages:    make(map[device.OID]uint32),
		rd:       make(map[device.OID]int64),
		wr:       make(map[device.OID]int64),
	}
}

func (d *probeDev) Class() string { return d.inner.Class() }

func (d *probeDev) Create(rel device.OID) error {
	t0 := d.start()
	err := d.inner.Create(rel)
	if err == nil {
		d.mu.Lock()
		if _, ok := d.pages[rel]; !ok {
			d.pages[rel] = 0
		}
		d.mu.Unlock()
	}
	d.done(t0)
	return err
}

func (d *probeDev) Drop(rel device.OID) error {
	t0 := d.start()
	err := d.inner.Drop(rel)
	if err == nil {
		d.mu.Lock()
		delete(d.pages, rel)
		d.mu.Unlock()
	}
	d.done(t0)
	return err
}

func (d *probeDev) NPages(rel device.OID) (uint32, error) { return d.inner.NPages(rel) }

func (d *probeDev) Extend(rel device.OID) (uint32, error) {
	t0 := d.start()
	n, err := d.inner.Extend(rel)
	if err == nil {
		d.mu.Lock()
		if n+1 > d.pages[rel] {
			d.pages[rel] = n + 1
		}
		d.mu.Unlock()
	}
	d.done(t0)
	return n, err
}

func (d *probeDev) ReadPage(rel device.OID, page uint32, buf []byte) error {
	t0 := d.start()
	if d.slowRead > 0 {
		spin(d.slowRead)
	}
	err := d.inner.ReadPage(rel, page, buf)
	if d.traced {
		d.reads.Add(1)
		d.mu.Lock()
		d.rd[rel]++
		d.mu.Unlock()
	}
	d.done(t0)
	return err
}

func (d *probeDev) WritePage(rel device.OID, page uint32, buf []byte) error {
	t0 := d.start()
	err := d.inner.WritePage(rel, page, buf)
	if d.traced {
		d.writes.Add(1)
		d.mu.Lock()
		d.wr[rel]++
		d.mu.Unlock()
	}
	d.done(t0)
	return err
}

func (d *probeDev) Sync() error {
	t0 := d.start()
	err := d.inner.Sync()
	if d.traced {
		d.syncs.Add(1)
	}
	d.done(t0)
	return err
}

func (d *probeDev) start() time.Time {
	if d.traced {
		return time.Now()
	}
	return time.Time{}
}

func (d *probeDev) done(t0 time.Time) {
	if d.traced {
		d.busyNs.Add(int64(time.Since(t0)))
	}
}

// spin busy-waits for dur: a sleep this short would oversleep by tens
// of microseconds, so the injected delay would not be the one named.
func spin(dur time.Duration) {
	for t0 := time.Now(); time.Since(t0) < dur; {
	}
}

// devCounts is a point-in-time copy of the wrapper's counters.
type devCounts struct {
	reads, writes, syncs, busyNs int64
	rd, wr                       map[device.OID]int64
}

func (d *probeDev) counts() devCounts {
	c := devCounts{
		reads: d.reads.Load(), writes: d.writes.Load(), syncs: d.syncs.Load(),
		busyNs: d.busyNs.Load(),
		rd:     make(map[device.OID]int64), wr: make(map[device.OID]int64),
	}
	d.mu.Lock()
	for k, v := range d.rd {
		c.rd[k] = v
	}
	for k, v := range d.wr {
		c.wr[k] = v
	}
	d.mu.Unlock()
	return c
}

// totalPages is the number of pages the device holds across every
// relation, the transaction log included.
func (d *probeDev) totalPages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, p := range d.pages {
		n += int64(p)
	}
	return n
}
