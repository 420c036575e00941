package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
)

// Every byte the benchmark writes is a pure function of the run seed,
// a file number, a page number and a generation, so any read can be
// checked by regenerating what must have been written.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fillBlock fills buf with the content of page `page` of file `file` at
// generation `gen`.
func fillBlock(buf []byte, seed int64, file, page, gen uint32) {
	s := mix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(file)<<40 ^ uint64(page)<<20 ^ uint64(gen))
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(buf[i:], s)
	}
	for ; i < len(buf); i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		buf[i] = byte(s)
	}
}

func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// blockCRC is the checksum of the first n bytes of a page's content.
func blockCRC(scratch []byte, seed int64, file, page, gen uint32, n int) uint32 {
	b := scratch[:n]
	fillBlock(b, seed, file, page, gen)
	return crc(b)
}

// newRand returns the generator for one stream of a run: the same seed
// and stream always give the same inputs.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(uint64(seed)*31 + uint64(stream)))))
}
