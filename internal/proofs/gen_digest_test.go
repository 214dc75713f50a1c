package proofs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"extra/internal/interp"
)

// genDigests pins every catalog generator's output stream: the SHA-256 of
// the first 200 (inputs, memory image) pairs each analysis's Gen draws at
// seed 1. Validation verdicts, constraint counters and the benchmark's
// per-layer counts all depend on this stream, so a generator may change
// how it builds its image but not what it draws or in which order.
var genDigests = map[string]string{
	"movsb/sassign":  "a0262197a6f1abd32310ca985a4ad5a0a9d5b807395cb30ce52179493aa43c56",
	"movsb/smove":    "a0262197a6f1abd32310ca985a4ad5a0a9d5b807395cb30ce52179493aa43c56",
	"scasb/index":    "4ceb2491f73beff92fe508955de2959ce6486e67215e41d054acba0a1f58e242",
	"scasb/indexc":   "4ceb2491f73beff92fe508955de2959ce6486e67215e41d054acba0a1f58e242",
	"cmpsb/scompare": "3f90c5ee3eab0c7afb29748670bb99e67566f888c531be20bffebc10db988a07",
	"movc3/blkcpy":   "ed23ab69655d17cb04a049c0a4d116fc2c8c8ca44501efa5d34cd0ead3375543",
	"movc5/blkclr":   "5593e456eaad29083f17ffaf29df73fb26028542386c335337fb2ea3cb5c10c2",
	"locc/index":     "2ef94fd6bb540b669c872d1c2946da373fe8aec4f583268a97a0e6476a002ba8",
	"locc/indexc":    "2ef94fd6bb540b669c872d1c2946da373fe8aec4f583268a97a0e6476a002ba8",
	"cmpc3/scompare": "48ab194bcf87fb458c55356bae4ef129c5f192d2e41151ade24dafc8d5d5a5fc",
	"mvc/sassign":    "afe2401812f0d6956f483d1bf1908db02a8f144a13a16f4533d480423aa1911c",
	"movc3/sassign":  "323f5bedc2ce35d5e4bdbf59aa9004a577df6799c38dfb1ac15a925468db0db0",
	"lss/lsearch":    "5c49e696479d45d6208e055fa9bb66e253ed2c08a51d72a6e458e33450989791",
	"stosb/blkclr":   "47ddf368b8b58ce4a9743a5279417a03b0457df4a926c58bd78e0d80b08c3bf0",
	"clc/scompare":   "d9851b28b72b408ef9cee728e476aec043860b63753d99146d3e34e0d5f7d3b3",
	"locc/pindex":    "2ef94fd6bb540b669c872d1c2946da373fe8aec4f583268a97a0e6476a002ba8",
	"tr/xlate":       "d63a4ca193348569745800859c0d1b91ef7edd91efa05836c2ba55dce04e23e5",
}

// genDigest hashes the first n generated pairs of a's Gen at seed 1, each
// image encoded as its (address, byte) entries in address order. It draws
// them as a validation does, into one operand buffer and one image reset
// before each call.
func genDigest(a *Analysis, n int) string {
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	var buf [9]byte
	var in []uint64
	var mem interp.Image
	for i := 0; i < n; i++ {
		mem.Reset()
		in = a.Gen(rng, in[:0], &mem)
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(in)))
		h.Write(buf[:8])
		for _, v := range in {
			binary.LittleEndian.PutUint64(buf[:8], v)
			h.Write(buf[:8])
		}
		addrs := slices.Clone(mem.Written())
		slices.Sort(addrs)
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(addrs)))
		h.Write(buf[:8])
		for _, k := range addrs {
			binary.LittleEndian.PutUint64(buf[:8], k)
			buf[8] = mem.Load(k)
			h.Write(buf[:9])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamsPinned: the generators draw the same inputs and build
// the same images as the digests recorded in genDigests.
func TestGeneratorStreamsPinned(t *testing.T) {
	all := append(Table2(), Extensions()...)
	for _, a := range all {
		key := a.Instruction + "/" + a.Operator
		got := genDigest(a, 200)
		if want := genDigests[key]; got != want {
			t.Errorf("%s: generator digest %s, want %s", key, got, want)
		}
	}
	if len(genDigests) != len(all) {
		t.Errorf("%d pinned digests for %d catalog analyses", len(genDigests), len(all))
	}
}
