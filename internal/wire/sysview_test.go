package wire

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestSysViewLocksOverWire is the PR's aha moment: a second client can
// watch the first client's open transaction and the lock it holds, via
// plain POSTQUEL over the unchanged wire protocol.
func TestSysViewLocksOverWire(t *testing.T) {
	_, addr, _ := startServer(t)
	holder := dial(t, addr, "holder")
	watcher := dial(t, addr, "watcher")

	if err := holder.PBegin(); err != nil {
		t.Fatal(err)
	}
	fd, err := holder.PCreat("/locked.txt", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.PWrite(fd, []byte("mine until commit")); err != nil {
		t.Fatal(err)
	}

	res, err := watcher.Query(`retrieve (l.txn, l.mode, l.rel)
		from l in inv_locks where l.granted and l.mode = "exclusive"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no exclusive locks visible while holder txn is open")
	}
	holderTxn := res.Rows[0][0].I

	res, err = watcher.Query(`retrieve (t.xid, t.state, t.relation)
		from t in inv_transactions`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].I == holderTxn {
			found = true
			if row[1].S != "in-progress" {
				t.Fatalf("holder txn state = %q", row[1].S)
			}
			if !strings.HasPrefix(row[2].S, "inv") {
				t.Fatalf("holder txn relation = %q, want inv<oid>", row[2].S)
			}
		}
	}
	if !found {
		t.Fatalf("lock-holding txn %d missing from inv_transactions", holderTxn)
	}

	if err := holder.PCommit(); err != nil {
		t.Fatal(err)
	}
	res, err = watcher.Query(fmt.Sprintf(
		`retrieve (l.txn) from l in inv_locks where l.txn = %d`, holderTxn))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("locks survived commit: %v", res.Rows)
	}
}

// TestSysViewAllCatalogsOverWire exercises every registered catalog
// through the wire path and checks the ones with guaranteed content
// actually return rows.
func TestSysViewAllCatalogsOverWire(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")

	// Generate state: a committed file populates the heap relations, the
	// op histograms, and the trace ring.
	writeRemote(t, c, "/seed.txt", []byte("rows for everyone"))

	// Discover the catalogs from the meta-catalog itself.
	res, err := c.Query(`retrieve (c.relation) from c in inv_columns`)
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]bool{}
	for _, row := range res.Rows {
		rels[row[0].S] = true
	}
	want := []string{
		"inv_stat_ops", "inv_stat_buffer", "inv_locks", "inv_transactions",
		"inv_relations", "inv_vacuum", "inv_traces", "inv_columns",
	}
	for _, name := range want {
		if !rels[name] {
			t.Errorf("catalog %s missing from inv_columns", name)
		}
	}

	// Every catalog must answer a full-row query without error.
	for name := range rels {
		if _, err := c.Query(fmt.Sprintf(`retrieve (x.%s) from x in %s`,
			firstColumn(t, c, name), name)); err != nil {
			t.Errorf("query over %s: %v", name, err)
		}
	}

	// Catalogs with guaranteed content return rows: the wire ops above
	// populate the op histograms and the trace ring, the pool has cached
	// pages, and the seed file lives in heap relations.
	for _, q := range []string{
		`retrieve (o.op, o.count, o.p99_ns) from o in inv_stat_ops where o.count > 0`,
		`retrieve (b.shard, b.hits) from b in inv_stat_buffer`,
		`retrieve (r.name, r.live) from r in inv_relations where r.name = "naming" and r.live > 0`,
		`retrieve (t.op, t.wall_ns, t.outcome) from t in inv_traces where t.outcome = "ok"`,
	} {
		res, err := c.Query(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("query %q returned no rows", q)
		}
	}
}

// writeRemote creates a file over the wire in one autocommitted op
// sequence.
func writeRemote(t *testing.T, c *Client, path string, data []byte) {
	t.Helper()
	fd, err := c.PCreat(path, core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, data); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
}

func firstColumn(t *testing.T, c *Client, rel string) string {
	t.Helper()
	res, err := c.Query(fmt.Sprintf(
		`retrieve (c.column) from c in inv_columns where c.relation = "%s" limit 1`, rel))
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("no columns for %s: %v", rel, err)
	}
	return res.Rows[0][0].S
}

// TestAsofOverVirtualWire: time travel over a live catalog is a loud,
// specific error — not silently-current rows.
func TestAsofOverVirtualWire(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")
	_, err := c.Query(`retrieve (l.txn) from l in inv_locks asof 12345`)
	if err == nil {
		t.Fatal("asof over inv_locks succeeded")
	}
	if !strings.Contains(err.Error(), "live-only") {
		t.Fatalf("asof error = %v, want live-only explanation", err)
	}
}

// TestStatOpsMatchesMetricsCatalog: inv_stat_ops and inv_metrics are
// two views over the same histograms; quiesced, their counts agree. The
// in-flight op itself ("query") is excluded — each records its own span
// after the response is built.
func TestStatOpsMatchesMetricsCatalog(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")

	writeRemote(t, c, "/a.txt", []byte("x"))
	if _, err := c.Stat("/a.txt", 0); err != nil {
		t.Fatal(err)
	}

	res, err := c.Query(`retrieve (o.op, o.count) from o in inv_stat_ops`)
	if err != nil {
		t.Fatal(err)
	}
	histCount := map[string]int64{}
	for _, s := range metricRows(t, c) {
		if s.Kind == obs.SampleCounter && s.Labels == "count" {
			histCount[s.Name] = int64(s.Value)
		}
	}
	checked := 0
	for _, row := range res.Rows {
		op, count := row[0].S, row[1].I
		if op == "query" {
			continue
		}
		want, ok := histCount["wire.op."+op+"_ns"]
		if !ok {
			t.Errorf("op %s missing from inv_metrics", op)
			continue
		}
		if count != want {
			t.Errorf("op %s: inv_stat_ops count %d != inv_metrics count %d", op, count, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no opcodes cross-checked")
	}
}

// promFamily maps a registry series to the Prometheus metric family
// /metrics exports it under: "inv_" plus the name with every character
// outside [A-Za-z0-9_] replaced by '_', and latency (*_ns) histograms
// as *_seconds.
func promFamily(name string, histogram bool) string {
	if histogram && strings.HasSuffix(name, "_ns") {
		return promFamily(strings.TrimSuffix(name, "_ns"), false) + "_seconds"
	}
	var b strings.Builder
	b.WriteString("inv_")
	for _, r := range name {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// TestMetricsCatalogParity: every counter, gauge and histogram family
// /metrics exports is reachable by retrieve over inv_metrics, including
// the contention gauges that mirror the pool, visibility-cache and lock
// counters.
func TestMetricsCatalogParity(t *testing.T) {
	_, addr, db := startServer(t)
	c := dial(t, addr, "parity")
	writeRemote(t, c, "/p.txt", []byte(strings.Repeat("parity ", 4096)))
	if _, err := c.Stat("/p.txt", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`retrieve (o.op) from o in inv_stat_ops`); err != nil {
		t.Fatal(err)
	}

	rows := metricRows(t, c)
	rec := httptest.NewRecorder()
	obs.Handler(db.Obs(), nil, db.RefreshObsGauges).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

	catalog := map[string]bool{}
	for _, s := range rows {
		hist := s.Kind == obs.SampleQuantile || s.Kind == obs.SampleCounter && s.Labels == "count"
		catalog[promFamily(s.Name, hist)] = true
	}
	families := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		families++
		if !catalog[f[2]] {
			t.Errorf("/metrics %s family %s has no inv_metrics row", f[3], f[2])
		}
	}
	if families == 0 {
		t.Fatal("no families in /metrics")
	}
	for _, g := range []string{"buffer.overcommits", "buffer.load_waits",
		"txn.status_cache_hits", "txn.status_cache_misses", "txn.lock_waits"} {
		findMetric(t, rows, g, "")
		if !strings.Contains(rec.Body.String(), "# TYPE "+promFamily(g, false)+" gauge") {
			t.Errorf("/metrics missing gauge %s", g)
		}
	}
	if hits := findMetric(t, rows, "txn.status_cache_hits", "") + findMetric(t, rows, "txn.status_cache_misses", ""); hits == 0 {
		t.Error("status-cache gauges never moved")
	}
}

// TestSysViewConcurrentChurn runs catalog queries against live
// transaction and lock churn; under -race this proves the snapshot
// accessors are clean.
func TestSysViewConcurrentChurn(t *testing.T) {
	_, addr, _ := startServer(t)

	const writers, rounds = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dial(t, addr, fmt.Sprintf("writer-%d", w))
			for i := 0; i < rounds; i++ {
				if err := c.PBegin(); err != nil {
					t.Error(err)
					return
				}
				fd, err := c.PCreat(fmt.Sprintf("/churn-%d-%d", w, i), core.CreateOpts{})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.PWrite(fd, []byte("busy")); err != nil {
					t.Error(err)
					return
				}
				if err := c.PCommit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := dial(t, addr, fmt.Sprintf("reader-%d", r))
			queries := []string{
				`retrieve (l.txn, l.mode, l.waiters) from l in inv_locks`,
				`retrieve (t.xid, t.age_ms, t.relation) from t in inv_transactions`,
				`retrieve (b.shard, b.hit_ratio) from b in inv_stat_buffer where b.shard = "all"`,
				`retrieve (o.op, o.count) from o in inv_stat_ops sort by o.count desc limit 3`,
			}
			for i := 0; i < rounds*2; i++ {
				if _, err := c.Query(queries[i%len(queries)]); err != nil {
					t.Errorf("churn query: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
