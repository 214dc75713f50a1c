package extra

import (
	"context"
	"testing"

	"extra/internal/gg"
	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/sim"
	"extra/internal/sim/i8086"
)

// descFromCorpora fetches a description from either corpus.
func descFromCorpora(name string) *isps.Description {
	if d := machines.Get(name); d != nil {
		return d
	}
	return langops.Get(name)
}

// benchInterpScasb runs the scasb description over a 64-byte string.
func benchInterpScasb(b *testing.B) {
	b.Helper()
	d := machines.Get("scasb")
	st := interp.NewState()
	for i := 0; i < 64; i++ {
		st.Store(uint64(100+i), byte('a'+i%3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2 := st.Clone()
		res, err := interp.Run(context.Background(), d, []uint64{1, 0, 0, 0, 100, 64, 'z'}, s2, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outputs[0] != 0 {
			b.Fatal("unexpected hit")
		}
	}
}

// benchGG generates code for an index expression with the table-driven
// selector and runs it.
func benchGG(b *testing.B) {
	b.Helper()
	varAddr := map[string]uint64{"r": 0xF000}
	tree := gg.Assign("r", &gg.Tree{Op: "index", Kids: []*gg.Tree{
		gg.Const(200), gg.Const(11), gg.Const('o'),
	}})
	out := gg.Out(gg.Var("r"))
	for i := 0; i < b.N; i++ {
		g := gg.NewGen(gg.Rules8086(), gg.Pool8086(), varAddr)
		if err := g.GenStmt(tree); err != nil {
			b.Fatal(err)
		}
		if err := g.GenStmt(out); err != nil {
			b.Fatal(err)
		}
		code := append(g.Code(), sim.Ins("hlt"))
		m, err := sim.NewMachine(i8086.ISA(), code)
		if err != nil {
			b.Fatal(err)
		}
		for k, c := range []byte("hello world") {
			m.StoreByte(200+uint64(k), c)
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		if len(m.Out) != 1 || m.Out[0] != 5 {
			b.Fatal("wrong answer")
		}
	}
}
