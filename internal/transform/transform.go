// Package transform implements EXTRA's source-to-source transformation
// library. The paper's system (section 5) contains 75 transformations in
// seven categories — local, code motion, loop, global, routine structuring,
// constraint and assertion, and augment producing — applied at a cursor
// position in a description after their syntactic and data-flow
// preconditions have been verified.
//
// Every transformation here takes an input description (never mutated), a
// path addressing the point of interest, and optional string arguments, and
// produces a transformed copy plus any constraints the application
// introduces. Transformations are registered by name; an analysis session
// (package core) records each application as one step, mirroring the
// paper's step counts.
package transform

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"extra/internal/constraint"
	"extra/internal/dataflow"
	"extra/internal/isps"
)

// Category is the paper's seven-way classification (section 5).
type Category int

// Transformation categories.
const (
	Local Category = iota
	Motion
	Loop
	Global
	Routine
	Constraint
	Augment
)

func (c Category) String() string {
	switch c {
	case Local:
		return "local"
	case Motion:
		return "code motion"
	case Loop:
		return "loop"
	case Global:
		return "global"
	case Routine:
		return "routine structuring"
	case Constraint:
		return "constraint and assertion"
	case Augment:
		return "augment producing"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Effect classifies how an application relates the old and new description.
type Effect int

// Effects.
const (
	// Preserving applications compute identical input/output/memory
	// behaviour (possibly conditional on recorded constraints).
	Preserving Effect = iota
	// Simplifying applications fix or re-encode an operand, shrinking the
	// input signature; Outcome records how old inputs map to new ones.
	Simplifying
	// Augmenting applications add prologue/epilogue code or change the
	// outputs, producing a variant instruction by design.
	Augmenting
)

// Args carries a transformation's extra parameters.
type Args map[string]string

// Int fetches an integer argument.
func (a Args) Int(key string) (int, error) {
	s, ok := a[key]
	if !ok {
		return 0, fmt.Errorf("transform: missing argument %q", key)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("transform: argument %q: %v", key, err)
	}
	return n, nil
}

// Str fetches a required string argument.
func (a Args) Str(key string) (string, error) {
	s, ok := a[key]
	if !ok || s == "" {
		return "", fmt.Errorf("transform: missing argument %q", key)
	}
	return s, nil
}

// InputAdaptor explains how operand vectors of the old description map to
// the new one after a Simplifying application, so differential tests can
// compare the two.
type InputAdaptor struct {
	// Removed is the operand deleted from the input list ("" if none).
	Removed string
	// RemovedPos is Removed's index in the old input list.
	RemovedPos int
	// RemovedVal is the fixed value the operand now always takes.
	RemovedVal uint64
	// Delta, for re-encoded operands, satisfies old = new + Delta at
	// position RemovedPos (Removed is then the re-encoded operand's old
	// name, which stays in place).
	Delta int64
	// Reencoded marks Delta-style adaptors.
	Reencoded bool
	// Perm, for operand reordering, maps new input positions to old ones:
	// newInputs[i] = oldInputs[Perm[i]].
	Perm []int
}

// splitComma splits a comma-separated argument list, trimming spaces.
func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			part := trimSpace(s[start:i])
			if part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// Outcome is the result of one transformation application.
type Outcome struct {
	Desc        *isps.Description
	Constraints []constraint.Constraint
	Adaptor     *InputAdaptor
	// Prologue/Epilogue record augment statements added by Augment
	// transformations, phrased over the instruction's registers.
	Prologue []isps.Stmt
	Epilogue []isps.Stmt
	// RemovedOutputs records the original output statement replaced by an
	// epilogue augment.
	RemovedOutputs []isps.Expr
	// Rewrites counts the elementary tree edits the application performed
	// (0 counts as 1): a constant propagation that replaces five uses is
	// one step at this library's granularity but five of the paper's
	// low-level steps, and the session reports both accountings.
	Rewrites int
	Note     string
}

// Transformation is one entry of the library.
type Transformation struct {
	Name     string
	Category Category
	Effect   Effect
	Doc      string
	// Gate is a structural condition that every node the transformation
	// accepts satisfies, asked of the node the path addresses; nil means
	// none. Apply refuses a node the gate rejects, so a caller probing many
	// sites may skip those without calling Apply.
	Gate func(isps.Node) bool
	// Apply transforms a copy of d at path `at` and returns the outcome,
	// or an error when the preconditions fail. d itself is never mutated.
	Apply func(d *isps.Description, at isps.Path, args Args) (*Outcome, error)
}

var registry = map[string]*Transformation{}

func register(t *Transformation) *Transformation {
	if _, dup := registry[t.Name]; dup {
		panic("transform: duplicate registration of " + t.Name)
	}
	registry[t.Name] = t
	return t
}

// Get looks up a transformation by name.
func Get(name string) (*Transformation, error) {
	t, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("transform: unknown transformation %q", name)
	}
	return t, nil
}

// All returns the library sorted by name.
func All() []*Transformation {
	out := make([]*Transformation, 0, len(registry))
	for _, t := range registry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByCategory returns the library entries in the given category, sorted.
func ByCategory(c Category) []*Transformation {
	var out []*Transformation
	for _, t := range All() {
		if t.Category == c {
			out = append(out, t)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared helpers.

// PrecondError reports a failed transformation precondition — the paper's
// "the system checks the preconditions and rejects the application" path,
// as opposed to a malformed request (unknown name, bad path, missing
// argument). The distinction feeds the observability layer: Barr-style
// debugging of a stuck analysis starts from which precondition killed the
// attempt.
//
// The error keeps its format and arguments and formats them each time it is
// read: most failures are the search's and the tactics' probes, whose
// messages nobody reads. Node arguments print from the nodes themselves,
// which are immutable (interned, or built by the failing transformation),
// and a Path argument is copied when the error is made, so the message
// never changes after the failure and concurrent readers share nothing
// they write.
type PrecondError struct {
	// Xform is the transformation whose precondition failed.
	Xform  string
	format string
	args   []any
}

// Msg formats the precondition message.
func (e *PrecondError) Msg() string { return fmt.Sprintf(e.format, e.args...) }

func (e *PrecondError) Error() string { return "transform " + e.Xform + ": " + e.Msg() }

// IsPrecond reports whether err is (or wraps) a precondition failure.
func IsPrecond(err error) bool {
	var pe *PrecondError
	return errors.As(err, &pe)
}

// AsPrecond extracts the precondition failure from err, if any. A refused
// search probe returns the *PrecondError itself, so that case is a type
// assertion; only a wrapped one pays for errors.As.
func AsPrecond(err error) (*PrecondError, bool) {
	if pe, ok := err.(*PrecondError); ok {
		return pe, true
	}
	var pe *PrecondError
	ok := errors.As(err, &pe)
	return pe, ok
}

// errPrecond records a precondition failure, to be formatted when read.
// A Path argument is copied: the caller's slice, or Walk's reused buffer,
// may change after the call. Pass a node as exprText or stmtText, never as
// its printed text, so a probe that fails prints nothing.
func errPrecond(name, format string, args ...any) error {
	for i, a := range args {
		if p, ok := a.(isps.Path); ok {
			args[i] = append(isps.Path(nil), p...)
		}
	}
	return &PrecondError{Xform: name, format: format, args: args}
}

// errGate is the refusal of a node that fails its transformation's gate.
func errGate(name string, n fmt.Stringer) error {
	return errPrecond(name, "%s does not have the shape the transformation rewrites", n)
}

// exprText and stmtText print a node when a precondition message is read.
type exprText struct{ e isps.Expr }

func (t exprText) String() string { return isps.ExprString(t.e) }

type stmtText struct{ s isps.Stmt }

func (t stmtText) String() string { return isps.StmtString(t.s) }

// firstCommon returns the smallest name of set, in sorted order, that is
// true in any of in, so a precondition message names the same variable on
// every run whatever the map iteration order.
func firstCommon(set map[string]bool, in ...map[string]bool) (string, bool) {
	first, found := "", false
	for k := range set {
		for _, m := range in {
			if m[k] && (!found || k < first) {
				first, found = k, true
			}
		}
	}
	return first, found
}

// routineBody returns the path of the routine's body block and the block.
func routineBody(d *isps.Description) (isps.Path, *isps.Block, error) {
	for si, s := range d.Sections {
		for di, dec := range s.Decls {
			if r, ok := dec.(*isps.RoutineDecl); ok {
				return isps.Path{si, di, 0}, r.Body, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("transform: description %s has no routine", d.Name)
}

// routineCFG builds the control-flow graph of d's routine body and returns
// it with the absolute path at made relative to that body.
func routineCFG(d *isps.Description, at isps.Path) (*dataflow.Graph, isps.Path, error) {
	bp, body, err := routineBody(d)
	if err != nil {
		return nil, nil, err
	}
	if len(at) < len(bp) || !bp.Equal(at[:len(bp)]) {
		return nil, nil, fmt.Errorf("transform: path %s is outside the routine body", at)
	}
	return dataflow.BuildCFG(body, dataflow.FuncMap(d)), at[len(bp):], nil
}

// resolveExpr resolves `at` in d and asserts it is an expression.
func resolveExpr(d *isps.Description, at isps.Path) (isps.Expr, error) {
	n, err := isps.Resolve(d, at)
	if err != nil {
		return nil, err
	}
	e, ok := n.(isps.Expr)
	if !ok {
		return nil, fmt.Errorf("transform: path %s addresses %T, not an expression", at, n)
	}
	return e, nil
}

// resolveStmtIndex resolves `at` in d to a statement and returns its
// containing block and index within it.
func resolveStmtIndex(d *isps.Description, at isps.Path) (*isps.Block, isps.Path, int, error) {
	if len(at) == 0 {
		return nil, nil, 0, fmt.Errorf("transform: empty path does not address a statement")
	}
	parentPath, idx := at.Parent()
	n, err := isps.Resolve(d, parentPath)
	if err != nil {
		return nil, nil, 0, err
	}
	blk, ok := n.(*isps.Block)
	if !ok {
		return nil, nil, 0, fmt.Errorf("transform: path %s is not inside a block", at)
	}
	if idx >= len(blk.Stmts) {
		return nil, nil, 0, fmt.Errorf("transform: statement index %d out of range at %s", idx, at)
	}
	return blk, parentPath, idx, nil
}

// isBooleanValued reports whether e always evaluates to 0 or 1: relational
// and logical operators do, as do the literals 0 and 1 and 1-bit registers.
func isBooleanValued(e isps.Expr, d *isps.Description) bool {
	switch x := e.(type) {
	case *isps.Bin:
		return x.Op.IsComparison() || x.Op.IsBoolean()
	case *isps.Un:
		return x.Op == isps.OpNot
	case *isps.Num:
		return x.Val == 0 || x.Val == 1
	case *isps.Ident:
		if r := d.Reg(x.Name); r != nil {
			return r.Width == 1
		}
	}
	return false
}

// pureExpr reports whether evaluating e has no side effects (no calls; Mb
// reads are allowed, they do not change state).
func pureExpr(e isps.Expr) bool {
	return !dataflow.HasCalls(e)
}

// substitute returns root with every use of Ident(name) under it replaced
// by repl, and the number of replacements; replacements are not re-visited,
// so repl may itself mention name. Input statements and declarations are
// left alone. ok is false, and nothing is built, when name is an assignment
// target under root and repl is not an identifier to rename it to. root is
// never mutated: unchanged subtrees are shared, and an unchanged root comes
// back as itself.
func substitute(root isps.Node, name string, repl isps.Expr) (isps.Node, int, bool) {
	if _, isIdent := repl.(*isps.Ident); !isIdent && mayAssign(root, name) {
		return nil, 0, false
	}
	total := 0
	out, err := isps.Rewrite(root, func(n isps.Node) (isps.Node, bool) {
		if id, ok := n.(*isps.Ident); ok && id.Name == name {
			total++
			return repl, true
		}
		return nil, false
	})
	if err != nil {
		return nil, 0, false
	}
	return out, total, true
}

// countIdent counts occurrences of Ident(name) under root.
func countIdent(root isps.Node, name string) int {
	n := 0
	isps.Visit(root, func(m isps.Node) bool {
		if id, ok := m.(*isps.Ident); ok && id.Name == name {
			n++
		}
		return true
	})
	return n
}

// spliceDecls returns d with the declarations [di, di+del) of section si
// replaced by add, sharing everything else.
func spliceDecls(d *isps.Description, si, di, del int, add ...isps.Decl) (*isps.Description, error) {
	s := d.Sections[si]
	decls := make([]isps.Decl, 0, len(s.Decls)-del+len(add))
	decls = append(decls, s.Decls[:di]...)
	decls = append(decls, add...)
	decls = append(decls, s.Decls[di+del:]...)
	return d.ReplaceAtDesc(isps.Path{si}, &isps.Section{Name: s.Name, Decls: decls})
}

// withRegDecl returns d with a new register declared at the end of its
// STATE section (or of the first section when none is named STATE).
func withRegDecl(d *isps.Description, name string, width int, comment string) (*isps.Description, error) {
	si := 0
	for i, s := range d.Sections {
		if s.Name == "STATE" {
			si = i
			break
		}
	}
	return spliceDecls(d, si, len(d.Sections[si].Decls), 0,
		&isps.RegDecl{Name: name, Width: width, Comment: comment})
}

// regDeclAt locates the first declaration of the named register: its
// section and declaration indices and the declaration, nil when there is
// none.
func regDeclAt(d *isps.Description, name string) (si, di int, r *isps.RegDecl) {
	for si, s := range d.Sections {
		for di, dec := range s.Decls {
			if r, ok := dec.(*isps.RegDecl); ok && r.Name == name {
				return si, di, r
			}
		}
	}
	return 0, 0, nil
}

// withoutRegDecl returns d without the named register's declaration (d
// itself when there is none).
func withoutRegDecl(d *isps.Description, name string) (*isps.Description, error) {
	si, di, r := regDeclAt(d, name)
	if r == nil {
		return d, nil
	}
	return spliceDecls(d, si, di, 1)
}

// without returns a copy of names with the element at i removed; names
// itself (which may belong to an interned statement) is left alone.
func without(names []string, i int) []string {
	out := make([]string, 0, len(names)-1)
	out = append(out, names[:i]...)
	return append(out, names[i+1:]...)
}

// inputStmtInfo locates the routine's input statement: the path of its
// block, its index there and the statement itself.
func inputStmtInfo(d *isps.Description) (isps.Path, int, *isps.InputStmt, error) {
	bodyPath, body, err := routineBody(d)
	if err != nil {
		return nil, 0, nil, err
	}
	for i, s := range body.Stmts {
		if in, ok := s.(*isps.InputStmt); ok {
			return bodyPath, i, in, nil
		}
	}
	return nil, 0, nil, fmt.Errorf("transform: %s has no input statement", d.Name)
}

// negEquiv reports whether cond b is the syntactic negation of cond a:
// either b == not a (or a == not b), or the operators are complementary
// comparisons over equal operands (= vs <>, < vs >=, > vs <=).
func negEquiv(a, b isps.Expr) bool {
	if u, ok := b.(*isps.Un); ok && u.Op == isps.OpNot && isps.Equal(a, u.X) {
		return true
	}
	if u, ok := a.(*isps.Un); ok && u.Op == isps.OpNot && isps.Equal(b, u.X) {
		return true
	}
	x, ok1 := a.(*isps.Bin)
	y, ok2 := b.(*isps.Bin)
	if !ok1 || !ok2 || !isps.Equal(x.X, y.X) || !isps.Equal(x.Y, y.Y) {
		return false
	}
	comp := map[isps.Op]isps.Op{
		isps.OpEq: isps.OpNe, isps.OpNe: isps.OpEq,
		isps.OpLt: isps.OpGe, isps.OpGe: isps.OpLt,
		isps.OpGt: isps.OpLe, isps.OpLe: isps.OpGt,
	}
	return comp[x.Op] == y.Op
}
