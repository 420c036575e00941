// Package repro's root benchmark suite regenerates every table and
// figure in the paper's evaluation as Go benchmarks. Each benchmark
// runs the corresponding workload on the simulated 1993 testbed and
// reports two numbers: the real time the Go implementation took
// (ns/op — the implementation's own speed) and the simulated elapsed
// seconds (sim-s/op — the quantity comparable to the paper's figures).
//
// The benchmarks use a 4 MB created file so `go test -bench=.` stays
// quick; the full 25 MB paper-scale run is `go run ./cmd/invbench`,
// whose output is recorded in EXPERIMENTS.md.
//
//	BenchmarkFig3*  — 25 MB (scaled) file creation, Figure 3
//	BenchmarkFig4*  — random single-byte read/write, Figure 4
//	BenchmarkFig5*  — 1 MB reads (single/seq/random), Figure 5
//	BenchmarkFig6*  — 1 MB writes (single/seq/random), Figure 6
//	BenchmarkTable3* — the single-process column of Table 3
//	BenchmarkAblation* — DESIGN.md's ablation studies
//	BenchmarkCore*  — real-time microbenchmarks of the implementation
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/inversion"
)

// benchFileSize keeps testing.B iterations fast; invbench runs 25 MB.
const benchFileSize = 4 << 20

func benchOp(b *testing.B, cfg bench.Config, op string) {
	b.Helper()
	r, err := bench.NewRunner(cfg, bench.DefaultParams(), benchFileSize)
	if err != nil {
		b.Fatal(err)
	}
	// Prime the shared file outside the timer.
	if op != bench.OpCreate {
		if _, err := r.RunOp(bench.OpReadByte); err != nil {
			b.Fatal(err)
		}
	}
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := r.RunOp(op)
		if err != nil {
			b.Fatal(err)
		}
		sim += d.Seconds()
	}
	b.ReportMetric(sim/float64(b.N), "sim-s/op")
}

// Figure 3: file creation.

func BenchmarkFig3CreateInversionCS(b *testing.B) { benchOp(b, bench.ConfigInvCS, bench.OpCreate) }
func BenchmarkFig3CreateNFS(b *testing.B)         { benchOp(b, bench.ConfigNFS, bench.OpCreate) }
func BenchmarkFig3CreateInversionSP(b *testing.B) { benchOp(b, bench.ConfigInvSP, bench.OpCreate) }

// Figure 4: random single-byte access.

func BenchmarkFig4ReadByteInversionCS(b *testing.B) { benchOp(b, bench.ConfigInvCS, bench.OpReadByte) }
func BenchmarkFig4ReadByteNFS(b *testing.B)         { benchOp(b, bench.ConfigNFS, bench.OpReadByte) }
func BenchmarkFig4WriteByteInversionCS(b *testing.B) {
	benchOp(b, bench.ConfigInvCS, bench.OpWriteByte)
}
func BenchmarkFig4WriteByteNFS(b *testing.B) { benchOp(b, bench.ConfigNFS, bench.OpWriteByte) }

// Figure 5: read throughput.

func BenchmarkFig5ReadSingleInversionCS(b *testing.B) {
	benchOp(b, bench.ConfigInvCS, bench.OpReadSingle)
}
func BenchmarkFig5ReadSingleNFS(b *testing.B) { benchOp(b, bench.ConfigNFS, bench.OpReadSingle) }
func BenchmarkFig5ReadSeqInversionCS(b *testing.B) {
	benchOp(b, bench.ConfigInvCS, bench.OpReadSeq)
}
func BenchmarkFig5ReadSeqNFS(b *testing.B) { benchOp(b, bench.ConfigNFS, bench.OpReadSeq) }
func BenchmarkFig5ReadRandomInversionCS(b *testing.B) {
	benchOp(b, bench.ConfigInvCS, bench.OpReadRandom)
}
func BenchmarkFig5ReadRandomNFS(b *testing.B) { benchOp(b, bench.ConfigNFS, bench.OpReadRandom) }

// Figure 6: write throughput.

func BenchmarkFig6WriteSingleInversionCS(b *testing.B) {
	benchOp(b, bench.ConfigInvCS, bench.OpWriteSingle)
}
func BenchmarkFig6WriteSingleNFS(b *testing.B) { benchOp(b, bench.ConfigNFS, bench.OpWriteSingle) }
func BenchmarkFig6WriteSeqInversionCS(b *testing.B) {
	benchOp(b, bench.ConfigInvCS, bench.OpWriteSeq)
}
func BenchmarkFig6WriteSeqNFS(b *testing.B) { benchOp(b, bench.ConfigNFS, bench.OpWriteSeq) }
func BenchmarkFig6WriteRandomInversionCS(b *testing.B) {
	benchOp(b, bench.ConfigInvCS, bench.OpWriteRandom)
}
func BenchmarkFig6WriteRandomNFS(b *testing.B) { benchOp(b, bench.ConfigNFS, bench.OpWriteRandom) }

// Table 3's third column: the single-process (user-defined-function)
// configuration, which the paper shows beating even NFS on most
// operations.

func BenchmarkTable3SPReadSingle(b *testing.B) { benchOp(b, bench.ConfigInvSP, bench.OpReadSingle) }
func BenchmarkTable3SPReadSeq(b *testing.B)    { benchOp(b, bench.ConfigInvSP, bench.OpReadSeq) }
func BenchmarkTable3SPReadRandom(b *testing.B) { benchOp(b, bench.ConfigInvSP, bench.OpReadRandom) }
func BenchmarkTable3SPWriteSingle(b *testing.B) {
	benchOp(b, bench.ConfigInvSP, bench.OpWriteSingle)
}
func BenchmarkTable3SPWriteSeq(b *testing.B) { benchOp(b, bench.ConfigInvSP, bench.OpWriteSeq) }
func BenchmarkTable3SPWriteRandom(b *testing.B) {
	benchOp(b, bench.ConfigInvSP, bench.OpWriteRandom)
}
func BenchmarkTable3SPReadByte(b *testing.B)  { benchOp(b, bench.ConfigInvSP, bench.OpReadByte) }
func BenchmarkTable3SPWriteByte(b *testing.B) { benchOp(b, bench.ConfigInvSP, bench.OpWriteByte) }

// The [STON93] local comparison.

func BenchmarkLocalFFSReadSingle(b *testing.B) {
	benchOp(b, bench.ConfigLocalFS, bench.OpReadSingle)
}
func BenchmarkLocalFFSReadRandom(b *testing.B) {
	benchOp(b, bench.ConfigLocalFS, bench.OpReadRandom)
}

// Ablations.

func BenchmarkAblationCoalescing(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		res, err := bench.AblateCoalescing(bench.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		sim += res.Direct.Seconds() - res.Coalesced.Seconds()
	}
	b.ReportMetric(sim/float64(b.N), "sim-s-saved/op")
}

func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblateCompression(bench.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJukeboxCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblateJukeboxCache(bench.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRecoveryVsFsck(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := bench.AblateRecovery(bench.DefaultParams(), 10, 4<<20)
		if err != nil {
			b.Fatal(err)
		}
		speedup += res.SpeedupFactor
	}
	b.ReportMetric(speedup/float64(b.N), "fsck/recovery-x")
}

// Real-time microbenchmarks of the Go implementation itself (no
// simulated costs: all-memory devices).

func newBenchDB(b *testing.B) (*inversion.DB, *inversion.Session) {
	b.Helper()
	db, err := inversion.OpenMemory(inversion.Options{Buffers: 512})
	if err != nil {
		b.Fatal(err)
	}
	return db, db.NewSession("bench")
}

func BenchmarkCoreSequentialWrite(b *testing.B) {
	_, s := newBenchDB(b)
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/w%d", i)
		if err := s.WriteFile(path, data, inversion.CreateOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreSequentialRead(b *testing.B) {
	_, s := newBenchDB(b)
	data := make([]byte, 256<<10)
	if err := s.WriteFile("/r", data, inversion.CreateOpts{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Open("/r")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreRandomReadAt(b *testing.B) {
	_, s := newBenchDB(b)
	const size = 1 << 20
	if err := s.WriteFile("/rr", make([]byte, size), inversion.CreateOpts{}); err != nil {
		b.Fatal(err)
	}
	f, err := s.Open("/rr")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	rng := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		off := int64(rng>>33) % (size - 4096)
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreCreateUnlink(b *testing.B) {
	_, s := newBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/cu%d", i)
		if err := s.WriteFile(path, []byte("x"), inversion.CreateOpts{}); err != nil {
			b.Fatal(err)
		}
		if err := s.Unlink(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreStat(b *testing.B) {
	_, s := newBenchDB(b)
	if err := s.WriteFile("/st", []byte("x"), inversion.CreateOpts{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Stat("/st"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreQueryScan(b *testing.B) {
	db, s := newBenchDB(b)
	for i := 0; i < 100; i++ {
		if err := s.WriteFile(fmt.Sprintf("/q%d", i), []byte("x"), inversion.CreateOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	eng := inversion.NewQueryEngine(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(s, `retrieve (filename) where size(file) > 0 and not isdir(file)`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 100 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkCoreTimeTravelRead(b *testing.B) {
	db, s := newBenchDB(b)
	for i := 0; i < 10; i++ {
		if err := s.WriteFile("/tt", []byte(fmt.Sprintf("version %d", i)), inversion.CreateOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	asof := db.Manager().LastCommitTime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadFileAsOf("/tt", asof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreAsOfAfterVacuum times a historical read of a version the
// vacuum cleaner has moved to the archive, over archives of growing
// size: the archive index keeps the cost flat in the number of files
// vacuumed. The pool holds every page, so buffer misses do not grow with
// the file count either.
func BenchmarkCoreAsOfAfterVacuum(b *testing.B) {
	for _, files := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			db, err := inversion.OpenMemory(inversion.Options{Buffers: 8192})
			if err != nil {
				b.Fatal(err)
			}
			s := db.NewSession("bench")
			for i := 0; i < files; i++ {
				if err := s.WriteFile(fmt.Sprintf("/a%d", i), []byte(fmt.Sprintf("old %d", i)), inversion.CreateOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			asof := db.Manager().LastCommitTime()
			for i := 0; i < files; i++ {
				if err := s.WriteFile(fmt.Sprintf("/a%d", i), []byte(fmt.Sprintf("new %d", i)), inversion.CreateOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := db.Vacuum(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := i % files
				got, err := s.ReadFileAsOf(fmt.Sprintf("/a%d", f), asof)
				if err != nil || string(got) != fmt.Sprintf("old %d", f) {
					b.Fatalf("asof read /a%d: %q %v", f, got, err)
				}
			}
		})
	}
}

func BenchmarkCoreCompressedWrite(b *testing.B) {
	_, s := newBenchDB(b)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i / 512)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/cz%d", i)
		if err := s.WriteFile(path, data, inversion.CreateOpts{Flags: inversion.FlagCompressed}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreVacuum(b *testing.B) {
	db, s := newBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 20; j++ {
			if err := s.WriteFile("/v", []byte(fmt.Sprintf("gen %d.%d", i, j)), inversion.CreateOpts{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := db.Vacuum(); err != nil {
			b.Fatal(err)
		}
	}
}
