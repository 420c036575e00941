// Command invtop is a terminal monitor for a served Inversion
// database. Both of its modes are ordinary POSTQUEL queries. In live
// mode it polls the inv_metrics catalog and renders per-interval
// deltas of the metrics registry — counters as rates, gauges as
// points, histograms as p50/p95/p99 — the same diffing the
// metrics-history recorder persists. With -asof it instead replays a
// past instant from the inv_history relations: time travel over the
// engine's own telemetry, served by the engine.
//
// Usage:
//
//	invtop -addr 127.0.0.1:4817                  # live, refresh every 2s
//	invtop -addr 127.0.0.1:4817 -interval 500ms -n 10
//	invtop -addr 127.0.0.1:4817 -asof 2026-08-08T14:05:00Z
//	invtop -addr 127.0.0.1:4817 -asof 1754661900000000000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/inversion"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:4817", "server address")
		owner    = flag.String("owner", "invtop", "user name sent to the server")
		interval = flag.Duration("interval", 2*time.Second, "live-mode refresh interval")
		n        = flag.Int("n", 0, "live-mode iteration count (0 = until interrupted)")
		top      = flag.Int("top", 15, "show at most this many counters per refresh (0 = all)")
		asof     = flag.String("asof", "",
			"replay the newest recorded tick at this instant from the history relations instead of live polling (RFC3339 or unix nanoseconds; requires the server to run with -metrics-history)")
	)
	flag.Parse()

	c, err := inversion.Dial(*addr, *owner)
	if err != nil {
		fmt.Fprintln(os.Stderr, "invtop:", err)
		os.Exit(1)
	}
	defer c.Close()

	if *asof != "" {
		err = replay(c, *asof, *top)
	} else {
		err = live(c, *interval, *n, *top)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "invtop:", err)
		os.Exit(1)
	}
}

// live polls inv_metrics and renders the per-interval delta view.
func live(c *inversion.Client, interval time.Duration, n, top int) error {
	differ := inversion.NewHistoryDiffer()
	poll := func() ([]inversion.HistorySample, error) {
		res, err := c.Query("retrieve (m.name, m.labels, m.kind, m.value) from m in inv_metrics")
		if err != nil {
			return nil, err
		}
		return differ.Diff(inversion.SamplesFromRows(res.Rows)), nil
	}
	// Prime the differ so the first rendered frame shows the first
	// interval's deltas, not all-time cumulative values.
	if _, err := poll(); err != nil {
		return err
	}
	for i := 0; n == 0 || i < n; i++ {
		time.Sleep(interval)
		samples, err := poll()
		if err != nil {
			return err
		}
		fmt.Printf("── invtop  %s  (Δ over %s)\n",
			time.Now().Format(time.RFC3339), interval)
		render(os.Stdout, samples, top)
	}
	return nil
}

// replay renders the newest tick at the asof instant from the history
// relations, over the ordinary query op.
func replay(c *inversion.Client, asofArg string, top int) error {
	asofNs, err := parseAsOf(asofArg)
	if err != nil {
		return err
	}
	tick, err := c.Query(fmt.Sprintf(
		"retrieve (h.seq, h.wall_ns, h.interval_ns, h.level, h.dropped) from h in inv_history sort by h.seq desc limit 1 asof %d", asofNs))
	if err != nil {
		return err
	}
	if len(tick.Rows) == 0 {
		return fmt.Errorf("no history tick recorded at or before %s (is the server running with -metrics-history?)", asofArg)
	}
	row := tick.Rows[0]
	seq, wall, iv, level := row[0].I, row[1].I, row[2].I, row[3].I
	dropped := row[4].B
	res, err := c.Query(fmt.Sprintf(
		"retrieve (s.name, s.labels, s.kind, s.value) from s in inv_history_samples where s.seq = %d sort by s.name asof %d", seq, asofNs))
	if err != nil {
		return err
	}
	kind := "raw tick"
	if level != 0 {
		kind = "rollup"
	}
	fmt.Printf("── invtop  replaying %s seq %d @ %s  (interval %s)\n",
		kind, seq, time.Unix(0, wall).UTC().Format(time.RFC3339), time.Duration(iv))
	if dropped {
		fmt.Println("   ⚠ recording attempts before this tick were dropped: the preceding gap lost data")
	}
	render(os.Stdout, inversion.SamplesFromRows(res.Rows), top)
	return nil
}

// parseAsOf accepts RFC3339 or raw unix nanoseconds.
func parseAsOf(s string) (int64, error) {
	if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ns, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return 0, fmt.Errorf("bad -asof %q (want RFC3339 or unix nanoseconds): %v", s, err)
	}
	return t.UnixNano(), nil
}

// render prints one frame: counters by delta (largest first), then
// histogram quantiles, then gauges, each section name-stable.
func render(w *os.File, samples []inversion.HistorySample, top int) {
	var counters, quantiles, gauges []inversion.HistorySample
	for _, s := range samples {
		switch s.Kind {
		case "counter":
			counters = append(counters, s)
		case "quantile":
			quantiles = append(quantiles, s)
		default:
			gauges = append(gauges, s)
		}
	}
	sort.Slice(counters, func(i, j int) bool {
		if counters[i].Value != counters[j].Value {
			return counters[i].Value > counters[j].Value
		}
		return label(counters[i]) < label(counters[j])
	})
	for _, sl := range [][]inversion.HistorySample{quantiles, gauges} {
		sort.Slice(sl, func(i, j int) bool { return label(sl[i]) < label(sl[j]) })
	}

	fmt.Fprintf(w, "%-52s %14s\n", "COUNTER (Δ)", "VALUE")
	shown := 0
	for _, s := range counters {
		if top > 0 && shown >= top {
			fmt.Fprintf(w, "  … %d more\n", len(counters)-shown)
			break
		}
		fmt.Fprintf(w, "%-52s %14.0f\n", label(s), s.Value)
		shown++
	}
	if len(quantiles) > 0 {
		fmt.Fprintf(w, "%-52s %14s\n", "HISTOGRAM", "")
		for _, s := range quantiles {
			// Only *_ns histograms are latencies; others keep their unit.
			v := fmt.Sprintf("%.0f", s.Value)
			if strings.HasSuffix(s.Name, "_ns") {
				v = time.Duration(int64(s.Value)).String()
			}
			fmt.Fprintf(w, "%-52s %14s\n", label(s), v)
		}
	}
	if len(gauges) > 0 {
		fmt.Fprintf(w, "%-52s %14s\n", "GAUGE", "VALUE")
		for _, s := range gauges {
			fmt.Fprintf(w, "%-52s %14.0f\n", label(s), s.Value)
		}
	}
	fmt.Fprintln(w)
}

func label(s inversion.HistorySample) string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}
