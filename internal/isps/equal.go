package isps

// Equal reports whether a and b are the same tree: the same node kinds,
// names, widths, comments, operators, literals and character flags in the
// same shape. It compares their 128-bit digests, as the interner, the
// auto-search's visited set and the analysis cache do, and relies on the
// same assumption that two different trees never share a digest. A frozen
// node answers from its memoized digest, so interned trees compare in
// O(1), and two canonical nodes for one tree (minted on either side of an
// interner shard reset) compare equal.
func Equal(a, b Node) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return hashNode(a) == hashNode(b)
}

// ParseStmt parses a single statement, e.g. "zf <- 0;" or a full
// if/end_if. It performs no name validation; callers add declarations as
// needed.
func ParseStmt(src string) (Stmt, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	if p.err != nil {
		return nil, p.err
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errf("unexpected %s after statement", p.tok)
	}
	return s, nil
}

// ParseStmts parses a statement sequence.
func ParseStmts(src string) ([]Stmt, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	if p.err != nil {
		return nil, p.err
	}
	var out []Stmt
	for p.tok.Kind != TokEOF {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseExpr parses a single expression, e.g. "di - temp".
func ParseExpr(src string) (Expr, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	if p.err != nil {
		return nil, p.err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errf("unexpected %s after expression", p.tok)
	}
	return e, nil
}
