// Package langops holds the ISPS-like descriptions of the high-level
// language operators and runtime routines the paper's analyses target:
// Rigel index (figure 2 verbatim), the Pascal compiler-internal string
// operators (sassign, scompare), the PL/1 runtime string move, the CLU
// string indexc routine, the PC2 (Berkeley Pascal runtime, written in C)
// block copy and block clear routines, and a generic linked-list search.
//
// As in the paper (section 5), the descriptions deliberately come in
// different styles — index-based loops derived from language manuals,
// pointer-based loops derived from runtime routine code, up-counting and
// down-counting forms — so the analysis cannot rely on a single way of
// writing descriptions.
package langops

import (
	"sync"

	"extra/internal/isps"
)

// Entry identifies one operator description in the corpus.
type Entry struct {
	Language  string
	Operation string
	Name      string
	Source    string
}

// All returns the operator corpus in a stable order.
func All() []Entry {
	return []Entry{
		{"Rigel", "string search", "index", RigelIndexSrc},
		{"CLU", "string search", "indexc", CluIndexcSrc},
		{"Pascal", "string move", "sassign", PascalSassignSrc},
		{"Pascal", "string compare", "scompare", PascalScompareSrc},
		{"PL/1", "string move", "smove", PL1SmoveSrc},
		{"PL/1", "string search", "pindex", PL1IndexSrc},
		{"PL/1", "string translate", "xlate", PL1XlateSrc},
		{"PC2", "block copy", "blkcpy", PC2BlkcpySrc},
		{"PC2", "block clear", "blkclr", PC2BlkclrSrc},
		{"Rigel", "list search", "lsearch", RigelLsearchSrc},
	}
}

var (
	corpusOnce sync.Once
	corpus     map[string]*isps.Description
)

// Get returns the named operator's description, or nil for a name not in
// the corpus. The corpus is parsed and interned once per process, on first
// use, so every call returns the same immutable hash-consed tree and its
// digest is a memo read. Callers change it through isps.ReplaceAt and the
// other persistent updates, which share it.
func Get(name string) *isps.Description {
	corpusOnce.Do(func() {
		corpus = make(map[string]*isps.Description)
		for _, e := range All() {
			corpus[e.Name] = isps.InternDesc(isps.MustParse(e.Source))
		}
	})
	return corpus[name]
}

// RigelIndexSrc is the Rigel index operator, figure 2 of the paper: search
// a string for a character and return its 1-based index, or 0 when the
// character does not occur. The read() access function returns the current
// character and advances the string index.
const RigelIndexSrc = `
index.operation := begin
** SOURCE.ACCESS **
  ! string base address
  Src.Base: integer,
  ! string index
  Src.Index: integer,
  ! string length
  Src.Length: integer,
  read(): integer := begin
    read <- Mb[Src.Base + Src.Index];
    Src.Index <- Src.Index + 1;
  end
** STATE **
  ! character sought
  ch: character
** STRING.PROCESS **
  index.execute := begin
    input (Src.Base, Src.Length, ch);
    Src.Index <- 0;
    repeat
      ! exit when string exhausted
      exit_when (Src.Length = 0);
      ! exit if char is found
      exit_when (ch = read());
      Src.Length <- Src.Length - 1;
    end_repeat;
    if Src.Length = 0
    then
      ! char not found
      output (0);
    else
      ! char found
      output (Src.Index);
    end_if;
  end
end
`

// CluIndexcSrc is the CLU runtime's string$indexc: return the 1-based index
// of the first occurrence of c, or 0. Unlike Rigel's description it counts
// the position upward to a limit rather than counting the length down.
const CluIndexcSrc = `
indexc.operation := begin
** SOURCE.ACCESS **
  ! string base address
  base: integer,
  ! string length
  limit: integer,
  ! running position
  i: integer
** STATE **
  ! character sought
  c: character
** STRING.PROCESS **
  indexc.execute := begin
    input (base, limit, c);
    i <- 0;
    repeat
      exit_when (i = limit);
      exit_when (Mb[base + i] = c);
      i <- i + 1;
    end_repeat;
    if i = limit
    then
      output (0);
    else
      output (i + 1);
    end_if;
  end
end
`

// PascalSassignSrc is the Pascal compiler-internal string assignment
// operator (paper section 4.2): move Len bytes from the source string to
// the destination string. Pascal strings cannot overlap, so the move is
// always low addresses to high.
const PascalSassignSrc = `
sassign.operation := begin
** SOURCE.ACCESS **
  ! destination base address
  Dst.Base: integer,
  ! source base address
  Src.Base: integer,
  ! string length
  Len: integer,
  ! running index
  idx: integer,
  read(): character := begin
    read <- Mb[Src.Base + idx];
  end
** STRING.PROCESS **
  sassign.execute := begin
    input (Dst.Base, Src.Base, Len);
    idx <- 0;
    repeat
      exit_when (Len = 0);
      Mb[Dst.Base + idx] <- read();
      idx <- idx + 1;
      Len <- Len - 1;
    end_repeat;
  end
end
`

// PascalScompareSrc is the Pascal compiler-internal string equality
// comparison: compare two equal-length strings and produce 1 when they are
// equal, 0 otherwise.
const PascalScompareSrc = `
scompare.operation := begin
** SOURCE.ACCESS **
  ! first string base address
  A.Base: integer,
  ! second string base address
  B.Base: integer,
  ! string length
  Len: integer,
  ! running index
  idx: integer,
  reada(): character := begin
    reada <- Mb[A.Base + idx];
  end
  readb(): character := begin
    readb <- Mb[B.Base + idx];
  end
** STRING.PROCESS **
  scompare.execute := begin
    input (A.Base, B.Base, Len);
    idx <- 0;
    repeat
      exit_when (Len = 0);
      exit_when (reada() <> readb());
      idx <- idx + 1;
      Len <- Len - 1;
    end_repeat;
    if Len = 0
    then
      output (1);
    else
      output (0);
    end_if;
  end
end
`

// PL1SmoveSrc is the PL/1 runtime string move for nonvarying strings of
// equal length. It was derived from runtime routine code, so it is written
// pointer-style as a guarded bottom-test loop rather than index-style.
const PL1SmoveSrc = `
smove.operation := begin
** SOURCE.ACCESS **
  ! destination pointer
  dp: integer,
  ! source pointer
  sp: integer,
  ! byte count
  n: integer
** STRING.PROCESS **
  smove.execute := begin
    input (dp, sp, n);
    if n <> 0
    then
      repeat
        Mb[dp] <- Mb[sp];
        dp <- dp + 1;
        sp <- sp + 1;
        n <- n - 1;
        exit_when (n = 0);
      end_repeat;
    end_if;
  end
end
`

// PL1IndexSrc is the PL/1 index builtin used to search for a single
// character (the paper's section 2 example of why augments are needed:
// index returns the 1-based position, not the address). Like the other
// PL/1 descriptions it is written pointer-style from runtime routine code.
const PL1IndexSrc = `
pindex.operation := begin
** SOURCE.ACCESS **
  ! character sought
  c: character,
  ! remaining length
  n: integer,
  ! running pointer
  p: integer,
  ! saved string base
  start: integer
** STRING.PROCESS **
  pindex.execute := begin
    input (c, n, p);
    start <- p;
    repeat
      exit_when (n = 0);
      exit_when (Mb[p] = c);
      p <- p + 1;
      n <- n - 1;
    end_repeat;
    if n = 0
    then
      output (0);
    else
      output (p - start + 1);
    end_if;
  end
end
`

// PL1XlateSrc is the PL/1 TRANSLATE builtin applied in place: each byte of
// the string is replaced by the table entry it selects.
const PL1XlateSrc = `
xlate.operation := begin
** SOURCE.ACCESS **
  ! string base address
  Base: integer,
  ! translate table base address
  Table: integer,
  ! string length
  Len: integer,
  ! running index
  idx: integer,
  ! current character
  t0: character
** STRING.PROCESS **
  xlate.execute := begin
    input (Base, Table, Len);
    idx <- 0;
    repeat
      exit_when (Len = 0);
      t0 <- Mb[Base + idx];
      Mb[Base + idx] <- Mb[Table + t0];
      idx <- idx + 1;
      Len <- Len - 1;
    end_repeat;
  end
end
`

// PC2BlkcpySrc is the Berkeley Pascal runtime (PC2) block copy. Like the C
// library bcopy it tolerates overlapping operands by choosing the move
// direction, which makes its description align with VAX movc3 directly.
const PC2BlkcpySrc = `
blkcpy.operation := begin
** SOURCE.ACCESS **
  ! byte count
  count: integer,
  ! source pointer
  from: integer,
  ! destination pointer
  to: integer
** STRING.PROCESS **
  blkcpy.execute := begin
    input (count, from, to);
    if to > from
    then
      from <- from + count;
      to <- to + count;
      repeat
        exit_when (count <= 0);
        from <- from - 1;
        to <- to - 1;
        Mb[to] <- Mb[from];
        count <- count - 1;
      end_repeat;
    else
      repeat
        exit_when (count <= 0);
        Mb[to] <- Mb[from];
        from <- from + 1;
        to <- to + 1;
        count <- count - 1;
      end_repeat;
    end_if;
  end
end
`

// PC2BlkclrSrc is the Berkeley Pascal runtime (PC2) block clear: store
// count zero bytes starting at the destination pointer.
const PC2BlkclrSrc = `
blkclr.operation := begin
** SOURCE.ACCESS **
  ! byte count
  count: integer,
  ! destination pointer
  to: integer
** STRING.PROCESS **
  blkclr.execute := begin
    input (count, to);
    repeat
      exit_when (count = 0);
      Mb[to] <- 0;
      to <- to + 1;
      count <- count - 1;
    end_repeat;
  end
end
`

// RigelLsearchSrc is a generic linked-list search operator: follow the link
// field at offset loff from record head q until the key byte at offset koff
// equals kv or the list ends. Binding it to the B4800 list search discovers
// the paper's introductory constraint that the link field must be the first
// field of the record (loff = 0).
const RigelLsearchSrc = `
lsearch.operation := begin
** SOURCE.ACCESS **
  ! current record pointer
  q: integer,
  ! link field offset within the record
  loff: integer,
  ! key field offset within the record
  koff: integer,
  ! key value sought
  kv: character
** STRING.PROCESS **
  lsearch.execute := begin
    input (q, loff, koff, kv);
    repeat
      exit_when (q = 0);
      exit_when (Mb[q + koff] = kv);
      q <- Mb[q + loff];
    end_repeat;
    output (q);
  end
end
`
