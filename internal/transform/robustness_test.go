package transform

import (
	"testing"

	"extra/internal/isps"
)

// TestEveryTransformationRejectsGracefully applies every registered
// transformation at every node of a small description with empty and junk
// arguments: none may panic, and whatever succeeds must produce a valid
// description. This is the library's "no crashes on bad cursor positions"
// net — the paper's interactive EXTRA faced arbitrary user cursor
// placement. It runs on the parsed tree and on its interned form, and
// every application, successful or not, must leave its input exactly as
// it was: transformations build their results persistently, and a direct
// field write would corrupt the canonical tree every session shares. The
// paths include one stale path below every node. A refusal's message is
// formatted when read, so each one must read the same after the caller
// overwrites the path slice it passed.
func TestEveryTransformationRejectsGracefully(t *testing.T) {
	parsed := parse(t, "a: integer, f<>, k<7:0>,",
		`input (a, f, k);
if f then a <- a + 1; else a <- 0; end_if;
repeat
exit_when (k = 0);
Mb[a + k] <- 1;
k <- k - 1;
end_repeat;
output (a);`)
	argSets := []Args{
		nil,
		{"dir": "up"},
		{"operand": "a", "value": "0", "var": "a", "flag": "f", "to": "zz",
			"temp": "zz", "width": "8", "i": "zz", "n": "a", "len": "zz",
			"p": "a", "keep": "a", "drop": "f", "k": "k", "from": "a",
			"stmt": "a <- 0;", "stmts": "output (0);", "abstract": "zz",
			"delta": "-1", "min": "0", "max": "5", "pred": "a > 0",
			"order": "a,f,k", "func": "a", "src": "a", "dst": "f"},
		{"value": "not-a-number", "width": "x", "delta": "y"},
	}
	for _, d := range []*isps.Description{parsed, isps.InternDesc(parsed)} {
		want := isps.Format(d)
		var paths []isps.Path
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			paths = append(paths, append(isps.Path(nil), p...), append(isps.Path(nil), append(p, 99)...))
			return true
		})
		for _, tr := range All() {
			for _, p := range paths {
				for _, args := range argSets {
					at := append(isps.Path(nil), p...)
					out, err := func() (o *Outcome, err error) {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s at %s with %v panicked: %v", tr.Name, p, args, r)
							}
						}()
						return tr.Apply(d, at, args)
					}()
					if got := isps.Format(d); got != want {
						t.Fatalf("%s at %s with %v (interned: %v) wrote through to its input:\n%s\nwant:\n%s",
							tr.Name, p, args, isps.Interned(d), got, want)
					}
					if err != nil {
						msg := err.Error()
						for i := range at {
							at[i] = 7
						}
						if got := err.Error(); got != msg {
							t.Errorf("%s at %s with %v: message changed with the caller's path:\n%s\nthen:\n%s",
								tr.Name, p, args, msg, got)
						}
						continue
					}
					if verr := isps.Validate(out.Desc); verr != nil {
						t.Errorf("%s at %s with %v produced an invalid description: %v",
							tr.Name, p, args, verr)
					}
				}
			}
		}
	}
}
