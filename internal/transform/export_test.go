package transform

import (
	"strings"

	"extra/internal/isps"
)

// UnitTables is a description that assigns the expression of every row of
// the fold and identity unit tables to x in turn.
func UnitTables() *isps.Description {
	var body strings.Builder
	body.WriteString("input (a, b, c, f, g);\n")
	for _, rows := range [][]unitRow{foldRows, identityRows} {
		for _, r := range rows {
			body.WriteString("x <- " + r.expr + ";\n")
		}
	}
	body.WriteString("output (x);")
	return isps.MustParse(source(identityDecls, body.String()))
}
