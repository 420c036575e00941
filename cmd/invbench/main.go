// Command invbench regenerates the paper's evaluation: Figures 3–6 and
// Table 3 of Olson's Inversion file system paper, plus the local
// ([STON93]) comparison and the ablation studies listed in DESIGN.md.
// Times are simulated seconds on the modeled 1993 testbed (DECsystem
// 5900, RZ58 disk, 10 Mbit/s Ethernet, PRESTOserve), so the shape of
// the results — who wins, by what factor — is comparable to the
// published numbers, which are printed alongside.
//
// Usage:
//
//	invbench -all            # everything
//	invbench -fig 3          # one figure (3, 4, 5 or 6)
//	invbench -table3         # all nine ops, three configurations
//	invbench -local          # Inversion vs local FFS, no network
//	invbench -ablate         # cache size, coalescing, compression, jukebox
//	invbench -scale          # concurrent-scaling curve (wall clock)
//	invbench -meta           # metadata storm: sharded namespace, N=1 vs N=8
//	invbench -size 25        # created-file size in MB (default 25)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "reproduce one figure (3..6)")
		table3   = flag.Bool("table3", false, "reproduce Table 3")
		local    = flag.Bool("local", false, "local (no-network) comparison")
		ablate   = flag.Bool("ablate", false, "run ablations")
		scale    = flag.Bool("scale", false, "concurrent-scaling curve (wall clock)")
		commit   = flag.Bool("commit", false, "write-heavy commit-throughput scaling (group commit, wall clock)")
		meta     = flag.Bool("meta", false, "metadata-storm scaling: partitioned namespace, N=1 vs N=8 shards (wall clock)")
		all      = flag.Bool("all", false, "run everything")
		sizeMB   = flag.Int64("size", 25, "created file size in MB")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")
		flight   = flag.String("flight", "",
			"run a wait-event sampler for the whole run and dump the flight-recorder bundle (timeline + wait profile) to this file at exit")
		regress       = flag.Bool("regress", false, "load -regress-input into a throwaway volume's metrics-history relations and run the engine's regression detector over every bench series")
		regressInput  = flag.String("regress-input", "BENCH_smoke.json", "bench -json report to check in -regress mode")
		regressInject = flag.Float64("regress-inject", 0,
			"self-test: multiply every series by this factor in one synthetic tick and fail unless the detector flags all of them (0 disables)")
		regressStrict = flag.Bool("regress-strict", false, "exit nonzero when -regress flags a real slowdown (default is warn-only)")
	)
	flag.Parse()
	if *regress {
		if err := runRegress(*regressInput, *regressInject, *regressStrict); err != nil {
			fmt.Fprintln(os.Stderr, "invbench:", err)
			os.Exit(1)
		}
		return
	}
	if !*table3 && !*local && !*ablate && !*scale && !*commit && !*meta && !*all && *fig == 0 {
		*all = true
	}
	var sampler *obs.WaitSampler
	if *flight != "" {
		sampler = obs.NewWaitSampler(obs.DefaultWaitSamplingInterval, nil)
		sampler.Start()
	}
	err := run(*fig, *table3, *local, *ablate, *scale, *commit, *meta, *all, *sizeMB, *jsonPath)
	if *flight != "" {
		sampler.Stop()
		if ferr := dumpFlight(*flight, sampler.Snapshot()); ferr != nil {
			fmt.Fprintln(os.Stderr, "invbench: flight dump:", ferr)
		} else {
			fmt.Printf("wrote flight-recorder bundle to %s\n", *flight)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "invbench:", err)
		os.Exit(1)
	}
}

// dumpFlight writes the benchmark run's flight bundle: the recent
// span/lifecycle timeline plus the whole-run wait profile.
func dumpFlight(path string, profile obs.WaitProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = obs.Flight().WriteBundle(f, "invbench", &profile)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// jsonReport is the -json output shape: the simulated Table 3 grid next
// to the paper's published numbers, and the wall-clock scaling points
// with their contention stats and metrics-registry snapshots. CI writes
// one per bench-smoke run, so regressions show up as artifact diffs.
type jsonReport struct {
	FileSizeBytes int64                           `json:"file_size_bytes,omitempty"`
	Table3Seconds map[string]map[string]float64   `json:"table3_seconds,omitempty"`
	PaperSeconds  map[string]map[string]float64   `json:"paper_seconds,omitempty"`
	Scaling       map[string][]bench.ScalingPoint `json:"scaling,omitempty"`
}

func run(fig int, table3, local, ablate, scale, commit, meta, all bool, sizeMB int64, jsonPath string) error {
	var jr jsonReport
	p := bench.DefaultParams()
	fileSize := sizeMB << 20
	scaled := ""
	if sizeMB != 25 {
		scaled = fmt.Sprintf(" (scaled: %d MB file; paper used 25 MB)", sizeMB)
	}

	var rep *bench.Report
	need := all || table3 || fig != 0
	if need {
		fmt.Printf("Running the paper's benchmark on the three configurations%s...\n\n", scaled)
		var err error
		rep, err = bench.Run(p, fileSize, []bench.Config{
			bench.ConfigInvCS, bench.ConfigNFS, bench.ConfigInvSP,
		})
		if err != nil {
			return err
		}
		jr.FileSizeBytes = rep.FileSize
		jr.Table3Seconds = make(map[string]map[string]float64)
		for cfg, row := range rep.Seconds {
			m := make(map[string]float64, len(row))
			for op, s := range row {
				m[op] = s
			}
			jr.Table3Seconds[string(cfg)] = m
		}
		jr.PaperSeconds = make(map[string]map[string]float64)
		for op, row := range bench.PaperTable3 {
			m := make(map[string]float64, len(row))
			for cfg, s := range row {
				m[string(cfg)] = s
			}
			jr.PaperSeconds[op] = m
		}
	}

	if all || fig == 3 {
		printFigure(rep, "Figure 3: 25 MByte file creation (elapsed seconds)",
			[]string{bench.OpCreate}, []bench.Config{bench.ConfigInvCS, bench.ConfigNFS})
	}
	if all || fig == 4 {
		printFigure(rep, "Figure 4: random single-byte access (elapsed seconds)",
			[]string{bench.OpReadByte, bench.OpWriteByte},
			[]bench.Config{bench.ConfigInvCS, bench.ConfigNFS})
	}
	if all || fig == 5 {
		printFigure(rep, "Figure 5: read throughput (elapsed seconds, 1 MByte)",
			[]string{bench.OpReadSingle, bench.OpReadSeq, bench.OpReadRandom},
			[]bench.Config{bench.ConfigInvCS, bench.ConfigNFS})
	}
	if all || fig == 6 {
		printFigure(rep, "Figure 6: write throughput (elapsed seconds, 1 MByte)",
			[]string{bench.OpWriteSingle, bench.OpWriteSeq, bench.OpWriteRandom},
			[]bench.Config{bench.ConfigInvCS, bench.ConfigNFS})
	}
	if all || table3 {
		printTable3(rep)
	}
	if all || local {
		if err := printLocal(p, fileSize); err != nil {
			return err
		}
	}
	if all || ablate {
		if err := printAblations(p, fileSize); err != nil {
			return err
		}
	}
	if all || scale {
		pts, err := printScaling()
		if err != nil {
			return err
		}
		jr.Scaling = pts
	}
	if all || commit {
		pts, err := printCommitScaling()
		if err != nil {
			return err
		}
		if jr.Scaling == nil {
			jr.Scaling = make(map[string][]bench.ScalingPoint)
		}
		jr.Scaling[bench.WorkloadWrite] = pts
	}
	if all || meta {
		pts, err := printMetaScaling()
		if err != nil {
			return err
		}
		if jr.Scaling == nil {
			jr.Scaling = make(map[string][]bench.ScalingPoint)
		}
		for _, pt := range pts {
			jr.Scaling[pt.Workload] = []bench.ScalingPoint{pt}
		}
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(&jr, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote machine-readable results to %s\n", jsonPath)
	}
	return nil
}

// printScaling runs the concurrent-scaling benchmark (wall clock, not
// the simulated 1993 clock) and prints throughput, speedup over one
// goroutine, and the contention counters each layer exports. The final
// point of each workload also dumps its metrics-registry snapshot, so
// the latency histograms behind the throughput numbers are visible
// without attaching an HTTP scraper. Load-waits (single-flight: a
// goroutine parked on another's in-flight page read) are reported
// separately from lock waits (two-phase lock-table contention) — the
// two look identical in aggregate throughput but call for different
// fixes.
func printScaling() (map[string][]bench.ScalingPoint, error) {
	fmt.Println("Concurrent scaling (wall clock; sleeping device, pool < working set):")
	out := make(map[string][]bench.ScalingPoint)
	for _, wl := range []string{bench.WorkloadRead, bench.WorkloadMixed} {
		pts, err := bench.RunScaling(wl, []int{1, 2, 4, 8}, 400)
		if err != nil {
			return nil, err
		}
		out[wl] = pts
		fmt.Printf("  %s:\n", wl)
		for _, pt := range pts {
			st := pt.Stats
			fmt.Printf("    g=%d  %8.0f ops/s  speedup %4.2fx   "+
				"cache %d/%d h/m, %d load-waits, %d overcommits; "+
				"status-cache %d/%d h/m; %d lock waits\n",
				pt.Goroutines, pt.OpsPerSec, pt.Speedup,
				st.CacheHits, st.CacheMisses, st.CacheLoadWaits, st.CacheOvercommits,
				st.StatusCacheHits, st.StatusCacheMisses, st.LockWaits)
		}
		last := pts[len(pts)-1]
		fmt.Printf("  %s metrics registry (g=%d run):\n", wl, last.Goroutines)
		fmt.Print(indent(obs.FormatText(obs.Samples(obs.MergeShards(last.Obs), obs.WaitProfile{})), "    "))
	}
	fmt.Println()
	return out, nil
}

// printCommitScaling runs the write-heavy commit-throughput grid: every
// operation overwrites a private file and commits in its own
// transaction over a device whose Sync dominates, so the curve measures
// how well the group-commit pipeline amortizes log forces across
// concurrent committers. Alongside throughput it prints the pipeline's
// own counters: mean commit batch size (1.00 = no batching) and the
// log forces saved by riding another committer's batch.
func printCommitScaling() ([]bench.ScalingPoint, error) {
	fmt.Println("Commit scaling (wall clock; write-heavy, sync-dominated device, group commit):")
	pts, err := bench.RunScaling(bench.WorkloadWrite, []int{1, 2, 4, 8}, 32)
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		batches, commits := commitBatchStats(pt.Obs)
		meanBatch := 1.0
		if batches > 0 {
			meanBatch = float64(commits) / float64(batches)
		}
		saved := obsCounter(pt.Obs, "txn.group_commit.forces_saved")
		fmt.Printf("    g=%d  %8.0f commits/s  speedup %4.2fx   "+
			"%d batches, mean batch %.2f, %d forces saved\n",
			pt.Goroutines, pt.OpsPerSec, pt.Speedup, batches, meanBatch, saved)
	}
	fmt.Println()
	return pts, nil
}

// printMetaScaling runs the metadata-storm benchmark: the same
// create/stat/rename stream from four concurrent clients, once on an
// unpartitioned namespace (N=1) and once hash-partitioned eight ways
// (N=8), over the same eight simulated metadata spindles. With one
// global naming relation every client's page loads queue on one
// spindle; with eight shards bound to eight spindles they overlap. The
// last point's speedup is the headline N=8-over-N=1 ratio, and the
// per-shard routing counters show the hash actually spread the traffic.
func printMetaScaling() ([]bench.ScalingPoint, error) {
	fmt.Println("Metadata storm (wall clock; 4 clients, per-spindle shard placement):")
	pts, err := bench.RunMetaScaling(4, 384, []int{1, 8})
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		st := pt.Stats
		fmt.Printf("    %-8s g=%d  %8.0f ops/s  speedup %4.2fx   "+
			"cache %d/%d h/m, %d load-waits; %d lock waits\n",
			pt.Workload, pt.Goroutines, pt.OpsPerSec, pt.Speedup,
			st.CacheHits, st.CacheMisses, st.CacheLoadWaits, st.LockWaits)
	}
	last := pts[len(pts)-1]
	fmt.Printf("  per-shard routing (%s):\n", last.Workload)
	for _, s := range last.Namespace {
		fmt.Printf("    shard %2d  %6d lookups  %6d inserts  %5d removes  "+
			"%4d renames (%d cross-shard)  %d lock waits\n",
			s.Shard, s.Lookups, s.Inserts, s.Removes, s.Renames, s.CrossRenames, s.LockWaits)
	}
	fmt.Println()
	return pts, nil
}

// commitBatchStats extracts (batches, commits) from the group-commit
// batch-size histogram: one observation per batch, each observation's
// value the number of committers it retired.
func commitBatchStats(snap obs.Snapshot) (batches, commits int64) {
	for _, h := range snap.Hists {
		if h.Name == "txn.group_commit.batch_size" {
			return h.Count, h.SumNs
		}
	}
	return 0, 0
}

// obsCounter reads one counter from a snapshot (0 when absent).
func obsCounter(snap obs.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, ln := range lines {
		if ln != "" {
			lines[i] = prefix + ln
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

func cfgLabel(cfg bench.Config) string {
	switch cfg {
	case bench.ConfigInvCS:
		return "Inversion client/server"
	case bench.ConfigNFS:
		return "ULTRIX NFS (PRESTOserve)"
	case bench.ConfigInvSP:
		return "Inversion single process"
	case bench.ConfigLocalFS:
		return "local FFS"
	case bench.ConfigNFSNoPrest:
		return "ULTRIX NFS (no NVRAM)"
	default:
		return string(cfg)
	}
}

// printFigure prints measured seconds plus the Inversion/NFS throughput
// ratio the paper quotes under each figure.
func printFigure(rep *bench.Report, title string, ops []string, cfgs []bench.Config) {
	fmt.Println(title)
	fmt.Printf("  %-36s", "operation")
	for _, c := range cfgs {
		fmt.Printf("  %24s", cfgLabel(c))
	}
	fmt.Println("   Inv/NFS   paper")
	for _, op := range ops {
		fmt.Printf("  %-36s", bench.OpLabel(op))
		for _, c := range cfgs {
			fmt.Printf("  %22.2fs", rep.Seconds[c][op])
		}
		measured := rep.Seconds[bench.ConfigNFS][op] / rep.Seconds[bench.ConfigInvCS][op]
		paper := bench.PaperTable3[op][bench.ConfigNFS] / bench.PaperTable3[op][bench.ConfigInvCS]
		fmt.Printf("   %5.0f%%   %5.0f%%\n", measured*100, paper*100)
	}
	fmt.Println()
}

func printTable3(rep *bench.Report) {
	cfgs := []bench.Config{bench.ConfigInvCS, bench.ConfigNFS, bench.ConfigInvSP}
	fmt.Println("Table 3: elapsed seconds for benchmark tests in three configurations")
	fmt.Println("  (measured | paper)")
	fmt.Printf("  %-36s %22s %22s %22s\n", "Operation",
		"Inversion client/srv", "ULTRIX NFS", "Inversion single-proc")
	for _, op := range bench.AllOps {
		fmt.Printf("  %-36s", bench.OpLabel(op))
		for _, c := range cfgs {
			fmt.Printf(" %10.2f | %7.2f", rep.Seconds[c][op], bench.PaperTable3[op][c])
		}
		fmt.Println()
	}
	fmt.Println()
}

func printLocal(p bench.Params, fileSize int64) error {
	fmt.Println("Local comparison ([STON93]: Inversion ≥90% of native FS on large")
	fmt.Println("sequential transfers, ~70% on small random transfers; no network):")
	rep, err := bench.Run(p, fileSize, []bench.Config{bench.ConfigInvSP, bench.ConfigLocalFS})
	if err != nil {
		return err
	}
	for _, op := range []string{bench.OpReadSingle, bench.OpReadSeq, bench.OpReadRandom,
		bench.OpWriteSingle, bench.OpWriteSeq, bench.OpWriteRandom} {
		inv := rep.Seconds[bench.ConfigInvSP][op]
		lfs := rep.Seconds[bench.ConfigLocalFS][op]
		fmt.Printf("  %-36s inversion %7.2fs   local-ffs %7.2fs   ratio %4.0f%%\n",
			bench.OpLabel(op), inv, lfs, lfs/inv*100)
	}
	fmt.Println()
	return nil
}

func printAblations(p bench.Params, fileSize int64) error {
	fmt.Println("Ablations (design choices called out in DESIGN.md):")

	cs, err := bench.AblateCacheSize(p, fileSize)
	if err != nil {
		return err
	}
	fmt.Printf("  buffer cache 64 vs 300 pages (as shipped vs Berkeley):\n")
	for _, op := range []string{bench.OpReadSeq, bench.OpReadRandom, bench.OpWriteSeq} {
		fmt.Printf("    %-34s %7.2fs -> %7.2fs\n",
			bench.OpLabel(op), cs.Small[op].Seconds(), cs.Large[op].Seconds())
	}

	co, err := bench.AblateCoalescing(p)
	if err != nil {
		return err
	}
	fmt.Printf("  write coalescing, 1 MB in 256 B sequential writes (one txn):\n")
	fmt.Printf("    coalesced: %7.3fs (%4d chunk-table pages)\n",
		co.Coalesced.Seconds(), co.RecordsCoalesced)
	fmt.Printf("    direct:    %7.3fs (%4d chunk-table pages)\n",
		co.Direct.Seconds(), co.RecordsUncoalesced)

	cm, err := bench.AblateCompression(p)
	if err != nil {
		return err
	}
	fmt.Printf("  chunk compression, 2 MB compressible file:\n")
	fmt.Printf("    plain:      create %6.2fs  seq read %6.2fs  rnd read %6.2fs  %4d pages\n",
		cm.CreatePlain.Seconds(), cm.ReadPlain.Seconds(), cm.RandomPlain.Seconds(), cm.PagesPlain)
	fmt.Printf("    compressed: create %6.2fs  seq read %6.2fs  rnd read %6.2fs  %4d pages\n",
		cm.CreateComp.Seconds(), cm.ReadComp.Seconds(), cm.RandomComp.Seconds(), cm.PagesComp)

	jb, err := bench.AblateJukeboxCache(p)
	if err != nil {
		return err
	}
	fmt.Printf("  jukebox staging cache, 2 MB file on WORM:\n")
	fmt.Printf("    cold read %6.2fs; repeat with 10MB cache %6.2fs (%d platter loads);\n",
		jb.ColdRead.Seconds(), jb.CachedRead.Seconds(), jb.PlatterLoadsCached)
	fmt.Printf("    repeat with 32KB cache %6.2fs (%d platter loads)\n",
		jb.TinyCacheRepeatRead.Seconds(), jb.PlatterLoadsTinyCache)

	rec, err := bench.AblateRecovery(p, 50, 20<<20)
	if err != nil {
		return err
	}
	fmt.Printf("  crash recovery vs fsck, %d files / %d MB on disk (%d pages):\n",
		rec.Files, rec.DataBytes>>20, rec.PagesOnDisk)
	fmt.Printf("    log-only recovery %8.4fs;  fsck-style full scan %8.2fs  (%.0fx)\n",
		rec.RecoveryTime.Seconds(), rec.FsckTime.Seconds(), rec.SpeedupFactor)
	fmt.Println()
	return nil
}
