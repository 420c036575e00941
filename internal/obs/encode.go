package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// shardSeries matches the per-shard segment in metric names like
// "buffer.shard03.hit_ns".
var shardSeries = regexp.MustCompile(`\.shard[0-9]+\.`)

// MergeShards folds per-shard histogram series into one series per
// family (".shardNN." collapsed to "."), so human-facing output shows
// one distribution per layer while /metrics retains full detail.
// Counters and gauges are folded the same way (summed); non-shard
// entries pass through unchanged.
func MergeShards(s Snapshot) Snapshot {
	var out Snapshot
	fold := func(vals []NamedValue) []NamedValue {
		sums := map[string]int64{}
		order := []string{}
		for _, v := range vals {
			name := shardSeries.ReplaceAllString(v.Name, ".")
			if _, ok := sums[name]; !ok {
				order = append(order, name)
			}
			sums[name] += v.Value
		}
		sort.Strings(order)
		merged := make([]NamedValue, 0, len(order))
		for _, name := range order {
			merged = append(merged, NamedValue{name, sums[name]})
		}
		return merged
	}
	out.Counters = fold(s.Counters)
	out.Gauges = fold(s.Gauges)

	hists := map[string]*HistogramSnapshot{}
	horder := []string{}
	for _, h := range s.Hists {
		name := shardSeries.ReplaceAllString(h.Name, ".")
		if m, ok := hists[name]; ok {
			m.Merge(h)
		} else {
			merged := h
			merged.Name = name
			hists[name] = &merged
			horder = append(horder, name)
		}
	}
	sort.Strings(horder)
	for _, name := range horder {
		out.Hists = append(out.Hists, *hists[name])
	}
	return out
}

// FormatText renders cumulative samples (Samples' output, or the
// rows of inv_metrics) for terminals: counters and gauges in stable
// sorted order with aligned values, then one line per histogram with
// its observation count and p50/p95/p99 (histograms with no
// observations are left out). A histogram's unit comes from
// its name: *_ns histograms are latencies and print as durations, any
// other (a batch size, a byte count) prints plain numbers.
func FormatText(samples []HistorySample) string {
	var counters, gauges []HistorySample
	hists := map[string]map[string]float64{} // name → "count"/"p50"/"p95"/"p99" → value
	width := 0
	for _, s := range samples {
		switch {
		case s.Kind == SampleQuantile, s.Kind == SampleCounter && s.Labels == "count":
			if hists[s.Name] == nil {
				hists[s.Name] = map[string]float64{}
			}
			hists[s.Name][s.Labels] = s.Value
			continue
		case s.Kind == SampleCounter:
			counters = append(counters, s)
		default:
			gauges = append(gauges, s)
		}
		width = max(width, len(sampleLabel(s)))
	}
	var b strings.Builder
	for _, sec := range []struct {
		title string
		rows  []HistorySample
	}{{"counters", counters}, {"gauges", gauges}} {
		if len(sec.rows) == 0 {
			continue
		}
		sort.Slice(sec.rows, func(i, j int) bool { return sampleLabel(sec.rows[i]) < sampleLabel(sec.rows[j]) })
		b.WriteString(sec.title + ":\n")
		for _, s := range sec.rows {
			fmt.Fprintf(&b, "  %-*s %12.0f\n", width, sampleLabel(s), s.Value)
		}
	}
	var names []string // histograms with observations; empty ones have no distribution
	hw := 0
	for name, h := range hists {
		if h["count"] > 0 {
			names = append(names, name)
			hw = max(hw, len(name))
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		b.WriteString("histograms:\n")
		for _, name := range names {
			h := hists[name]
			format := func(label string) string { return fmt.Sprintf("%.0f", h[label]) }
			if isLatency(name) {
				format = func(label string) string { return FormatNs(int64(h[label])) }
			}
			fmt.Fprintf(&b, "  %-*s n=%-8.0f p50=%-9s p95=%-9s p99=%s\n",
				hw, name, h["count"], format("p50"), format("p95"), format("p99"))
		}
	}
	return b.String()
}

// isLatency reports whether a histogram records nanosecond durations,
// which the registry marks by the "_ns" name suffix. Only those render
// as durations and export to Prometheus as seconds.
func isLatency(name string) bool { return strings.HasSuffix(name, "_ns") }

// sampleLabel renders a sample's series as name or name{labels}.
func sampleLabel(s HistorySample) string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}

// FormatNs renders a nanosecond duration compactly (852ns, 14.2µs,
// 3.1ms, 2.50s).
func FormatNs(ns int64) string {
	switch {
	case ns < 1_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}
