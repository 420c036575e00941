package obs

import "fmt"

// Metrics as samples: one flat (name, labels, kind, value) shape for
// every series the registry holds, shared by the inv_metrics catalog
// (live, cumulative), the history recorder (per-tick deltas), and
// invtop. Samples flattens a registry snapshot and wait profile into
// cumulative samples; HistoryDiffer turns successive cumulative sample
// sets into per-tick truth, so what lands in the history relations is
// already a time series: counters as deltas, gauges as points,
// histograms as the p50/p95/p99 of the distribution so far plus the
// per-tick observation count.
//
// Nothing here reads any clock, virtual or wall — both halves are pure
// arithmetic. Timestamps belong to the recorder that owns the tick.

// Sample kinds. A counter sample is cumulative in Samples' output and a
// delta since the previous tick in Diff's; a gauge sample is the value
// at the tick; a quantile sample is the named quantile of the
// cumulative distribution at the tick (quantiles do not difference
// meaningfully, so they are recorded as points like gauges).
const (
	SampleCounter  = "counter"
	SampleGauge    = "gauge"
	SampleQuantile = "quantile"
)

// HistorySample is one metric point: a row of inv_metrics, or of
// inv_history_samples without its tick seq.
type HistorySample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
}

// quantileLabels are the points a histogram is summarized by.
var quantileLabels = [...]struct {
	label string
	q     float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}}

// Samples flattens a snapshot and a wait profile (whose per-(op, rel)
// cells exist nowhere else) into cumulative samples: counters, gauges,
// then per histogram its p50/p95/p99 (only once it has observations)
// and its observation count as a "count"-labelled counter, then one
// waitprof.<class>.<event> counter per profile cell labelled op[/rel].
func Samples(snap Snapshot, wp WaitProfile) []HistorySample {
	out := make([]HistorySample, 0, len(snap.Counters)+len(snap.Gauges)+4*len(snap.Hists)+len(wp.Rows))
	for _, c := range snap.Counters {
		out = append(out, HistorySample{Name: c.Name, Kind: SampleCounter, Value: float64(c.Value)})
	}
	for _, g := range snap.Gauges {
		out = append(out, HistorySample{Name: g.Name, Kind: SampleGauge, Value: float64(g.Value)})
	}
	for _, h := range snap.Hists {
		if h.Count > 0 {
			for _, q := range quantileLabels {
				out = append(out, HistorySample{
					Name: h.Name, Labels: q.label, Kind: SampleQuantile,
					Value: float64(h.Quantile(q.q)),
				})
			}
		}
		out = append(out, HistorySample{
			Name: h.Name, Labels: "count", Kind: SampleCounter, Value: float64(h.Count),
		})
	}
	for _, r := range wp.Rows {
		labels := r.Op
		if r.Rel != "" {
			labels = r.Op + "/" + r.Rel
		}
		out = append(out, HistorySample{
			Name:   fmt.Sprintf("waitprof.%s.%s", r.Class, r.Event),
			Labels: labels, Kind: SampleCounter, Value: float64(r.Samples),
		})
	}
	return out
}

// HistoryDiffer converts successive cumulative sample sets into
// per-tick samples. It remembers the previous tick's counter values;
// the first Diff differences against zero, so a fresh differ attached
// to a long-lived registry records the full cumulative state as its
// first tick — exactly what a recorder restarting after a crash wants.
type HistoryDiffer struct {
	prev map[string]float64 // counter name + "\x00" + labels → cumulative value
}

// NewHistoryDiffer returns a differ with no previous tick.
func NewHistoryDiffer() *HistoryDiffer {
	return &HistoryDiffer{prev: make(map[string]float64)}
}

// Diff produces the samples for one tick from Samples' cumulative
// output and advances the differ's previous-tick state. Counters
// become deltas and zero deltas are skipped (an idle system records
// almost nothing); gauges and quantiles pass through as points.
func (d *HistoryDiffer) Diff(samples []HistorySample) []HistorySample {
	var out []HistorySample
	for _, s := range samples {
		if s.Kind == SampleCounter {
			key := s.Name + "\x00" + s.Labels
			delta := s.Value - d.prev[key]
			d.prev[key] = s.Value
			if delta == 0 {
				continue
			}
			s.Value = delta
		}
		out = append(out, s)
	}
	return out
}
