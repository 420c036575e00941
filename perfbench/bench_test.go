package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestMain lets the test binary serve as the benchmark's child process:
// run starts child processes from its own executable, so the tests
// drive the same path as the command.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--child" || strings.HasPrefix(a, "--child=") {
			main()
		}
	}
	os.Exit(m.Run())
}

// runSmall runs a workload with a reduced amount of work and returns
// its exit code, its final JSON line and the whole report.
func runSmall(t *testing.T, o opts) (int, result, string) {
	t.Helper()
	if o.seconds == 0 {
		o.seconds = 2
	}
	o.child = -1
	var out bytes.Buffer
	code, _ := run(&out, o)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return code, res, out.String()
}

func (r result) v(name string) float64 { return r.Metrics[name].Value }

// bounds reads each end-to-end metric's bound from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range []string{"meta", "bulk", "history"} {
		code, res, out := runSmall(t, opts{workload: w, seed: 7, seconds: 1})
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: code %d, result %+v\n%s", w, code, res, out)
		}
	}
}

// A deliberately wrong expected generation on time-travel reads must
// be caught: failed_frac above zero and a nonzero exit.
func TestWrongGenerationIsCaught(t *testing.T) {
	for _, w := range []string{"history", "bulk"} {
		code, res, out := runSmall(t, opts{workload: w, seed: 3, seconds: 1, wrongGen: true})
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong generation not caught: code %d, result %+v", w, code, res)
		}
		if !strings.Contains(out, "FAILED:") {
			t.Errorf("%s: report names no failed check", w)
		}
		frac := 0.0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "failed_frac" {
				if err := json.Unmarshal([]byte(f[1]), &frac); err != nil {
					t.Fatal(err)
				}
			}
		}
		if frac <= 0 {
			t.Errorf("%s: failed_frac %v, want > 0", w, frac)
		}
	}
}

// A device that is slower to read must show on bulk, whose data set is
// several times the pool, as a read_mb_per_s regression beyond its
// bound attributed to the device layer; meta and history run from a
// warm pool, never read the device, and must stay within their bounds.
func TestSlowDeviceShowsOnBulkOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs bulk four times and meta and history seven times each")
	}
	const delay = 200 * time.Microsecond
	bd := bounds(t)

	_, fast, _ := runSmall(t, opts{workload: "bulk", seed: 5})
	_, slow, _ := runSmall(t, opts{workload: "bulk", seed: 5, slowRead: delay})
	if got, limit := slow.v("read_mb_per_s"), fast.v("read_mb_per_s")*(1-bd["read_mb_per_s"]); got >= limit {
		t.Errorf("bulk read_mb_per_s %.1f with a slow device, want below %.1f", got, limit)
	}
	_, fastL, _ := runSmall(t, opts{workload: "bulk", seed: 5, trace: true})
	_, slowL, _ := runSmall(t, opts{workload: "bulk", seed: 5, trace: true, slowRead: delay})
	added := slowL.v("device.busy_us_per_op") - fastL.v("device.busy_us_per_op")
	want := 0.8 * slowL.v("device.reads_per_op") * float64(delay.Microseconds())
	if added < want || want == 0 {
		t.Errorf("device.busy_us_per_op rose by %.1f us, want at least %.1f", added, want)
	}
	if self := slowL.v("core.self_us_per_op") - fastL.v("core.self_us_per_op"); self > added {
		t.Errorf("core.self_us_per_op rose by %.1f us, more than the device's %.1f", self, added)
	}

	// Short runs drift from one to the next by more than a long run
	// does, so the warm-pool workloads compare the medians of three
	// alternated pairs of normal and slowed runs. history runs longer:
	// early in its history its asof median sits between cheap
	// small-file reads and dearer archive reads, and jumps between them.
	for w, secs := range map[string]int{"meta": 3, "history": 8} {
		_, tr, _ := runSmall(t, opts{workload: w, seed: 5, trace: true, slowRead: delay})
		if n := tr.v("device.reads_per_op"); n != 0 {
			t.Errorf("%s reads the device (%.2f reads per op)", w, n)
		}
		var a, b []result
		for i := 0; i < 3; i++ {
			for _, slowed := range []bool{i%2 == 1, i%2 == 0} {
				o := opts{workload: w, seed: 5, seconds: secs}
				if slowed {
					o.slowRead = delay
				}
				_, res, _ := runSmall(t, o)
				if slowed {
					b = append(b, res)
				} else {
					a = append(a, res)
				}
			}
		}
		med := func(rs []result, m string) float64 {
			var v []float64
			for _, r := range rs {
				v = append(v, r.v(m))
			}
			return median(v)
		}
		for _, m := range []string{"ops_per_s", "read_p50_us", "write_p50_us", "asof_p50_us"} {
			worse := med(b, m)/med(a, m) - 1
			if m == "ops_per_s" {
				worse = med(a, m)/med(b, m) - 1
			}
			if worse > bd[m] {
				t.Errorf("%s %s worsened by %.0f%% with a slow device, bound %.0f%%", w, m, 100*worse, 100*bd[m])
			}
		}
	}
}
