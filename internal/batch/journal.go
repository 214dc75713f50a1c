// Crash-safe journaling. A Journal appends each completed row as one
// fsynced JSON line, so a process killed mid-run (SIGKILL included) loses
// at most the row that was being written; every earlier row survives as
// valid JSONL. ReadJournal tolerates the torn tail, and CompletedFrom turns
// the surviving rows into the Runner.Completed skip set, which is how
// `extra batch -resume FILE` restarts a killed run from where it died. The
// discovery sweep keeps its work list in the same kind of journal.
// WriteFileAtomic is the shared write-tmp+fsync+rename helper behind every
// report file the batch CLI and the analysis server produce: a reader of
// the target path sees the old complete report or the new complete report,
// never a truncation.
package batch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"extra/internal/proofs"
)

// Key identifies this row's catalog entry across runs: every field that
// selects the analysis, none that describe one execution of it. Journal
// resume matches rows by this key.
func (r *Result) Key() string {
	return r.Machine + "|" + r.Instruction + "|" + r.Language + "|" + r.Operation + "|" + r.Operator
}

// AnalysisKey is Result.Key for a catalog entry that has not run yet.
func AnalysisKey(a *proofs.Analysis) string {
	return a.Machine + "|" + a.Instruction + "|" + a.Language + "|" + a.Operation + "|" + a.Operator
}

// Journal is an append-only crash-safe result log. Append is safe for
// concurrent use; each row is one JSON line followed by a file sync, so
// rows are durable in order of completion.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	config string // the header's digest, kept by Rewrite
}

// OpenJournal opens (creating if needed) an append-mode journal at path.
// An existing journal is extended, not truncated — resume appends the
// remaining rows after the survivors. A torn last line (a crash mid-write)
// is cut off first: appending after it would fuse the next row with it
// into one unreadable line and hide every later row from ReadJournal. The
// parent directory is fsynced after the open, so a journal created just
// before a crash still has a directory entry on recovery — the same
// dir-sync WriteFileAtomic performs after its rename; rows alone being
// durable is worthless if the file name is not.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := trimTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		d.Sync() // best-effort: some filesystems refuse directory fsync
		d.Close()
	}
	return &Journal{f: f, path: path}, nil
}

// trimTornTail truncates f back to just past its last newline, dropping
// whatever partial line a crash left after it. Every complete row ends in
// a newline, so nothing ReadJournal would return is lost.
func trimTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	keep := int64(0) // bytes up to and including the last newline
	buf := make([]byte, 4096)
	for end := size; end > 0 && keep == 0; {
		n := min(end, int64(len(buf)))
		end -= n
		if _, err := f.ReadAt(buf[:n], end); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep = end + int64(i) + 1
		}
	}
	if keep == size {
		return nil
	}
	return f.Truncate(keep)
}

// Append journals one row: v encoded as a single JSON line, then fsync.
// The encode happens before any byte reaches the file, so a failed encode
// never writes a partial line.
func (j *Journal) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLocked(append(line, '\n'))
}

func (j *Journal) writeLocked(line []byte) error {
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// journalMagic marks a header line; rows never carry this field, so a
// reader can tell the two apart without guessing.
const journalMagic = "extra.journal"

// header is the journal's first line when the writer declared its run
// configuration: a digest over every flag and catalog fact that changes
// what the rows mean. Resume against a journal written under a different
// configuration is rejected instead of silently mixing incompatible rows.
type header struct {
	Journal string `json:"journal"`
	Version int    `json:"version"`
	Config  string `json:"config"`
}

// headerLine is the encoded header WriteHeader writes and Rewrite keeps.
func headerLine(config string) []byte {
	// A struct of strings and an int always encodes.
	line, _ := json.Marshal(header{Journal: journalMagic, Version: 1, Config: config})
	return append(line, '\n')
}

// asHeader reports whether a journal line is a header line.
func asHeader(line []byte) (header, bool) {
	if !bytes.Contains(line, []byte(`"journal"`)) {
		return header{}, false
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil || h.Journal != journalMagic {
		return header{}, false
	}
	return h, true
}

// WriteHeader stamps a new (empty) journal with the run-config digest as
// its first line. On a non-empty journal it verifies instead of writing:
// a matching header (or a legacy headerless journal, which predates the
// fingerprint) is accepted, a mismatched one is a hard error — the caller
// is about to append rows produced under a different configuration.
// Either way Rewrite keeps the digest as the rewritten file's first line.
func (j *Journal) WriteHeader(config string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	st, err := j.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() > 0 {
		_, existing, err := ReadJournal[json.RawMessage](j.path)
		if err != nil {
			return err
		}
		if existing != "" && existing != config {
			return fmt.Errorf("journal %s was written under config %s, this run is %s: resume with matching flags or start a fresh journal", j.path, existing, config)
		}
	} else if err := j.writeLocked(headerLine(config)); err != nil {
		return err
	}
	j.config = config
	return nil
}

// ConfigDigest folds the given configuration facts into the short stable
// digest WriteHeader records: FNV-1a 64 over the parts with a separator, so
// any reordering or edit of a part changes the fingerprint.
func ConfigDigest(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Close closes the journal file, leaving its contents as-is.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Rewrite replaces the journal file with the canonical catalog-order report
// via WriteFileAtomic, closing the append handle first. A batch run that
// finished (rather than being killed) calls this so the journal file doubles
// as the final JSONL report: same bytes as an uninterrupted run, with
// completion-order and superseded (retried, resumed) rows compacted away.
// The WriteHeader digest stays the first line, so a later -resume under
// different flags is still refused.
func (j *Journal) Rewrite(results []Result) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Close(); err != nil {
		return err
	}
	return WriteFileAtomic(j.path, func(w io.Writer) error {
		if j.config != "" {
			if _, err := w.Write(headerLine(j.config)); err != nil {
				return err
			}
		}
		return WriteJSONL(w, results)
	})
}

// ReadJournal loads the surviving rows of a journal, each decoded into an
// R, plus the config digest of its header ("" for a legacy headerless
// journal; resume paths refuse a digest that differs from the current
// run's). A missing file is an empty journal (resume of a run that never
// started). The read stops at the first line that is not complete JSON —
// the torn tail of a kill -9 — and returns every row before it; a torn
// tail is expected, not an error. A complete line that does not decode
// into an R is an error.
func ReadJournal[R any](path string) (rows []R, config string, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			break // the torn tail of a kill -9: expected, not an error
		}
		if h, ok := asHeader(line); ok {
			config = h.Config
			continue
		}
		var r R
		if err := json.Unmarshal(line, &r); err != nil {
			return rows, config, fmt.Errorf("journal %s: %w", path, err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		return rows, config, fmt.Errorf("reading journal %s: %w", path, err)
	}
	return rows, config, nil
}

// CompletedFrom builds the Runner.Completed skip set from journaled rows:
// last row per key wins (a retried row supersedes its first attempt), and
// "canceled" rows are dropped — a row that was cut by the dying run's
// context must re-run on resume.
func CompletedFrom(rows []Result) map[string]Result {
	done := make(map[string]Result, len(rows))
	for _, r := range rows {
		if r.Outcome == "canceled" {
			delete(done, r.Key())
			continue
		}
		done[r.Key()] = r
	}
	return done
}

// WriteFileAtomic writes a file via write(w) into a temporary file in the
// target's directory, fsyncs it, and renames it over path — so the path
// always holds a complete document, whatever happens mid-write. The
// directory is fsynced after the rename where the platform allows, making
// the rename itself durable.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync() // best-effort: some filesystems refuse directory fsync
		d.Close()
	}
	return nil
}

// WriteJSONFile writes the indented JSON report atomically to path.
func WriteJSONFile(path string, results []Result) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteJSON(w, results) })
}
