// Package machines holds the ISPS-like descriptions of the exotic machine
// instructions analyzed in the paper: the Intel 8086 string instructions
// (movsb, scasb, cmpsb), the VAX-11 character instructions (movc3, movc5,
// locc, cmpc3), the IBM 370 mvc, plus the two instructions discussed as
// analysis failures or constraints — the Data General Eclipse character move
// (direction encoded in the sign of the length operand, paper section 5) and
// the Burroughs B4800 list search (link field must be the first field,
// paper section 1).
//
// The descriptions were transcribed from the paper's figures where given
// (scasb is figure 3 verbatim) and otherwise derived from the instruction
// semantics in the referenced processor handbooks, in the same procedural
// style.
package machines

import (
	"sync"

	"extra/internal/isps"
)

// Entry identifies one instruction description in the corpus.
type Entry struct {
	Machine     string
	Instruction string
	Source      string
}

// All returns the instruction corpus in a stable order.
func All() []Entry {
	return []Entry{
		{"Intel 8086", "movsb", MovsbSrc},
		{"Intel 8086", "scasb", ScasbSrc},
		{"Intel 8086", "cmpsb", CmpsbSrc},
		{"VAX-11", "movc3", Movc3Src},
		{"VAX-11", "movc5", Movc5Src},
		{"VAX-11", "locc", LoccSrc},
		{"VAX-11", "cmpc3", Cmpc3Src},
		{"Intel 8086", "stosb", StosbSrc},
		{"IBM 370", "mvc", MvcSrc},
		{"IBM 370", "clc", ClcSrc},
		{"IBM 370", "tr", TrSrc},
		{"DG Eclipse", "cmv", EclipseCmvSrc},
		{"Burroughs B4800", "lss", B4800LssSrc},
	}
}

var (
	corpusOnce sync.Once
	corpus     map[string]*isps.Description
)

// Get returns the named instruction's description, or nil for a name not
// in the corpus. The corpus is parsed and interned once per process, on
// first use, so every call returns the same immutable hash-consed tree and
// its digest is a memo read. Callers change it through isps.ReplaceAt and
// the other persistent updates, which share it.
func Get(instruction string) *isps.Description {
	corpusOnce.Do(func() {
		corpus = make(map[string]*isps.Description)
		for _, e := range All() {
			corpus[e.Instruction] = isps.InternDesc(isps.MustParse(e.Source))
		}
	})
	return corpus[instruction]
}

// ScasbSrc is the Intel 8086 scasb instruction, figure 3 of the paper.
// Scasb scans a string for the character in al. The address is preloaded in
// di, the length in cx, and several flags control execution: rf (repeat),
// df (direction), rfz (exit condition: scan over all occurrences of the
// character rather than to the first one). Segment addressing is ignored,
// as in the paper.
const ScasbSrc = `
scasb.instruction := begin
** SOURCE.ACCESS **
  ! source string address
  di<15:0>,
  ! source string length
  cx<15:0>,
  ! fetch source character
  fetch()<7:0> := begin
    fetch <- Mb[di];
    ! control direction of fetch
    if df
    then
      ! high-to-low addresses
      di <- di - 1;
    else
      ! low-to-high addresses
      di <- di + 1;
    end_if;
  end
** STATE **
  ! repeat flag
  rf<>,
  ! direction flag
  df<>,
  ! exit condition flag
  rfz<>,
  ! last compare zero flag
  zf<>,
  ! character sought
  al<7:0>
** STRING.PROCESS **
  scasb.execute := begin
    input (rf, rfz, df, zf, di, cx, al);
    if (not rf)
    then
      ! no repetition
      if (al - fetch()) = 0
      then
        zf <- 1;
      else
        zf <- 0;
      end_if;
    else
      ! repeat mode
      repeat
        exit_when (cx = 0);
        cx <- cx - 1;
        if (al - fetch()) = 0
        then
          zf <- 1;
        else
          zf <- 0;
        end_if;
        ! exit on condition
        exit_when ((rfz and (not zf)) or ((not rfz) and zf));
      end_repeat;
    end_if;
    output (zf, di, cx);
  end
end
`

// MovsbSrc is the Intel 8086 movsb instruction: move the byte at [si] to
// [di], stepping both pointers in the df direction; with the rep prefix
// (rf set) the move repeats cx times.
const MovsbSrc = `
movsb.instruction := begin
** SOURCE.ACCESS **
  ! source string address
  si<15:0>,
  ! destination string address
  di<15:0>,
  ! string length
  cx<15:0>,
  ! fetch source character
  fetch()<7:0> := begin
    fetch <- Mb[si];
    if df
    then
      si <- si - 1;
    else
      si <- si + 1;
    end_if;
  end
** STATE **
  ! repeat flag
  rf<>,
  ! direction flag
  df<>
** STRING.PROCESS **
  movsb.execute := begin
    input (rf, df, si, di, cx);
    if (not rf)
    then
      Mb[di] <- fetch();
      if df
      then
        di <- di - 1;
      else
        di <- di + 1;
      end_if;
    else
      repeat
        exit_when (cx = 0);
        cx <- cx - 1;
        Mb[di] <- fetch();
        if df
        then
          di <- di - 1;
        else
          di <- di + 1;
        end_if;
      end_repeat;
    end_if;
    output (si, di, cx);
  end
end
`

// CmpsbSrc is the Intel 8086 cmpsb instruction: compare the byte at [si]
// with the byte at [di], stepping both pointers; with the rep prefix the
// comparison repeats until cx is exhausted or the rfz exit condition fires
// (rfz set selects "repeat while equal").
const CmpsbSrc = `
cmpsb.instruction := begin
** SOURCE.ACCESS **
  ! first string address
  si<15:0>,
  ! second string address
  di<15:0>,
  ! string length
  cx<15:0>,
  ! fetch character of first string
  fetchs()<7:0> := begin
    fetchs <- Mb[si];
    if df
    then
      si <- si - 1;
    else
      si <- si + 1;
    end_if;
  end
  ! fetch character of second string
  fetchd()<7:0> := begin
    fetchd <- Mb[di];
    if df
    then
      di <- di - 1;
    else
      di <- di + 1;
    end_if;
  end
** STATE **
  ! repeat flag
  rf<>,
  ! direction flag
  df<>,
  ! exit condition flag
  rfz<>,
  ! last compare zero flag
  zf<>
** STRING.PROCESS **
  cmpsb.execute := begin
    input (rf, rfz, df, zf, si, di, cx);
    if (not rf)
    then
      if (fetchs() - fetchd()) = 0
      then
        zf <- 1;
      else
        zf <- 0;
      end_if;
    else
      repeat
        exit_when (cx = 0);
        cx <- cx - 1;
        if (fetchs() - fetchd()) = 0
        then
          zf <- 1;
        else
          zf <- 0;
        end_if;
        exit_when ((rfz and (not zf)) or ((not rfz) and zf));
      end_repeat;
    end_if;
    output (zf, si, di, cx);
  end
end
`

// StosbSrc is the Intel 8086 stosb instruction: store the byte in al at
// [di], stepping di in the df direction; with the rep prefix the store
// repeats cx times.
const StosbSrc = `
stosb.instruction := begin
** SOURCE.ACCESS **
  ! destination string address
  di<15:0>,
  ! string length
  cx<15:0>
** STATE **
  ! repeat flag
  rf<>,
  ! direction flag
  df<>,
  ! byte to store
  al<7:0>
** STRING.PROCESS **
  stosb.execute := begin
    input (rf, df, al, di, cx);
    if (not rf)
    then
      Mb[di] <- al;
      if df
      then
        di <- di - 1;
      else
        di <- di + 1;
      end_if;
    else
      repeat
        exit_when (cx = 0);
        cx <- cx - 1;
        Mb[di] <- al;
        if df
        then
          di <- di - 1;
        else
          di <- di + 1;
        end_if;
      end_repeat;
    end_if;
    output (di, cx);
  end
end
`

// Movc3Src is the VAX-11 movc3 instruction: move len bytes from src to dst,
// guarding against overlapping strings by choosing the move direction
// (paper section 4.3). String lengths on the VAX are limited to 16 bits.
const Movc3Src = `
movc3.instruction := begin
** SOURCE.ACCESS **
  ! string length
  len<15:0>,
  ! source address
  src<31:0>,
  ! destination address
  dst<31:0>
** STRING.PROCESS **
  movc3.execute := begin
    input (len, src, dst);
    if src < dst
    then
      ! destination above source: move high-addressed bytes first
      src <- src + len;
      dst <- dst + len;
      repeat
        exit_when (len = 0);
        src <- src - 1;
        dst <- dst - 1;
        Mb[dst] <- Mb[src];
        len <- len - 1;
      end_repeat;
    else
      ! move low-addressed bytes first
      repeat
        exit_when (len = 0);
        Mb[dst] <- Mb[src];
        src <- src + 1;
        dst <- dst + 1;
        len <- len - 1;
      end_repeat;
    end_if;
    output (src, dst);
  end
end
`

// Movc5Src is the VAX-11 movc5 instruction: move min(srclen, dstlen) bytes
// from src to dst, then fill the remainder of the destination with the fill
// character.
const Movc5Src = `
movc5.instruction := begin
** SOURCE.ACCESS **
  ! source string length
  srclen<15:0>,
  ! source address
  src<31:0>,
  ! fill character
  fill<7:0>,
  ! destination string length
  dstlen<15:0>,
  ! destination address
  dst<31:0>
** STRING.PROCESS **
  movc5.execute := begin
    input (srclen, src, fill, dstlen, dst);
    ! move phase
    repeat
      exit_when (srclen = 0);
      exit_when (dstlen = 0);
      Mb[dst] <- Mb[src];
      src <- src + 1;
      dst <- dst + 1;
      srclen <- srclen - 1;
      dstlen <- dstlen - 1;
    end_repeat;
    ! fill phase
    repeat
      exit_when (dstlen = 0);
      Mb[dst] <- fill;
      dst <- dst + 1;
      dstlen <- dstlen - 1;
    end_repeat;
    output (src, dst);
  end
end
`

// LoccSrc is the VAX-11 locc instruction: locate the character char in the
// string of length r0 at address r1. On exit r1 addresses the located
// character (or one past the end) and r0 holds the number of bytes
// remaining including the located one (0 when not found).
const LoccSrc = `
locc.instruction := begin
** SOURCE.ACCESS **
  ! bytes remaining: the length operand is a word, so only 16 bits
  r0<15:0>,
  ! running address
  r1<31:0>
** STATE **
  ! character sought
  char<7:0>
** STRING.PROCESS **
  locc.execute := begin
    input (char, r0, r1);
    repeat
      exit_when (r0 = 0);
      exit_when (Mb[r1] = char);
      r1 <- r1 + 1;
      r0 <- r0 - 1;
    end_repeat;
    output (r0, r1);
  end
end
`

// Cmpc3Src is the VAX-11 cmpc3 instruction: compare two equal-length
// strings byte by byte until a mismatch or exhaustion. On exit r0 holds the
// number of bytes remaining in the first string (0 when the strings are
// equal) and r1/r3 address the mismatching bytes.
const Cmpc3Src = `
cmpc3.instruction := begin
** SOURCE.ACCESS **
  ! bytes remaining: the length operand is a word, so only 16 bits
  r0<15:0>,
  ! first string address
  r1<31:0>,
  ! second string address
  r3<31:0>
** STRING.PROCESS **
  cmpc3.execute := begin
    input (r0, r1, r3);
    repeat
      exit_when (r0 = 0);
      exit_when (Mb[r1] <> Mb[r3]);
      r1 <- r1 + 1;
      r3 <- r3 + 1;
      r0 <- r0 - 1;
    end_repeat;
    output (r0, r1, r3);
  end
end
`

// MvcSrc is the IBM 370 mvc instruction: move len+1 bytes from the address
// in b2 to the address in b1. The 8-bit length field encodes the byte count
// minus one (paper section 4.2), so mvc always moves at least one byte and
// at most 256.
const MvcSrc = `
mvc.instruction := begin
** SOURCE.ACCESS **
  ! destination address
  b1<31:0>,
  ! source address
  b2<31:0>,
  ! length code: len+1 bytes are moved
  len<7:0>
** STRING.PROCESS **
  mvc.execute := begin
    input (b1, b2, len);
    repeat
      Mb[b1] <- Mb[b2];
      b1 <- b1 + 1;
      b2 <- b2 + 1;
      exit_when (len = 0);
      len <- len - 1;
    end_repeat;
    output (b1, b2);
  end
end
`

// ClcSrc is the IBM 370 clc instruction: compare len+1 bytes of two
// storage fields, stopping at the first mismatch; like mvc, the 8-bit
// length field encodes the byte count minus one. The condition code is
// modeled as the cc flag (1 when the fields differ).
const ClcSrc = `
clc.instruction := begin
** SOURCE.ACCESS **
  ! first field address
  a1<31:0>,
  ! second field address
  a2<31:0>,
  ! length code: len+1 bytes are compared
  len<7:0>
** STATE **
  ! condition code: 1 when the fields differ
  cc<>
** STRING.PROCESS **
  clc.execute := begin
    input (a1, a2, len);
    cc <- 0;
    repeat
      if Mb[a1] <> Mb[a2]
      then
        cc <- 1;
      else
        cc <- 0;
      end_if;
      exit_when (cc);
      a1 <- a1 + 1;
      a2 <- a2 + 1;
      exit_when (len = 0);
      len <- len - 1;
    end_repeat;
    output (cc);
  end
end
`

// TrSrc is the IBM 370 tr instruction: translate len+1 bytes in place
// through a 256-byte table (each byte is replaced by the table entry it
// indexes). Like mvc and clc, the 8-bit length field encodes the byte
// count minus one.
const TrSrc = `
tr.instruction := begin
** SOURCE.ACCESS **
  ! field address
  a1<31:0>,
  ! translate table address
  tbl<31:0>,
  ! length code: len+1 bytes are translated
  len<7:0>
** STRING.PROCESS **
  tr.execute := begin
    input (a1, tbl, len);
    repeat
      Mb[a1] <- Mb[tbl + Mb[a1]];
      a1 <- a1 + 1;
      exit_when (len = 0);
      len <- len - 1;
    end_repeat;
    output (a1);
  end
end
`

// EclipseCmvSrc is the Data General Eclipse character move. The direction
// of the move is encoded in the sign of the 16-bit length operand: a
// positive length moves low addresses to high, a negative length (two's
// complement, high bit set) moves high to low. The length operand thus
// serves two unrelated purposes, the "clever coding trick" that defeats the
// analysis (paper section 5).
const EclipseCmvSrc = `
cmv.instruction := begin
** SOURCE.ACCESS **
  ! source address
  acs<15:0>,
  ! destination address
  acd<15:0>,
  ! signed length: positive moves low-to-high, negative high-to-low
  n<15:0>
** STRING.PROCESS **
  cmv.execute := begin
    input (acs, acd, n);
    repeat
      exit_when (n = 0);
      if n < 32768
      then
        Mb[acd] <- Mb[acs];
        acs <- acs + 1;
        acd <- acd + 1;
        n <- n - 1;
      else
        Mb[acd] <- Mb[acs];
        acs <- acs - 1;
        acd <- acd - 1;
        n <- n + 1;
      end_if;
    end_repeat;
  end
end
`

// B4800LssSrc is the Burroughs B4800 linked-list search: follow the chain
// of records starting at p until a record whose key byte (at offset koff)
// equals kv, or the end of the list (a zero link). The instruction assumes
// the link field is the first field of the record (paper section 1), which
// becomes a storage-allocation constraint on the language's record layout.
// Links are single bytes in this description, so list nodes must live in
// the first 256 bytes of memory.
const B4800LssSrc = `
lss.instruction := begin
** SOURCE.ACCESS **
  ! current record pointer
  p<15:0>,
  ! key field offset within the record
  koff<15:0>,
  ! key value sought
  kv<7:0>
** STRING.PROCESS **
  lss.execute := begin
    input (p, koff, kv);
    repeat
      exit_when (p = 0);
      exit_when (Mb[p + koff] = kv);
      ! the link field is the first field of the record
      p <- Mb[p];
    end_repeat;
    output (p);
  end
end
`
