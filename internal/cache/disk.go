// The persistent cache tier: one self-checksummed JSON file per key under
// Config.Dir. Files are written with batch.WriteFileAtomic (tmp + fsync +
// rename), so a crash mid-write leaves the old complete entry or none — but
// a cache directory also survives operator copies, partial rsyncs, and hand
// edits, so every read re-verifies a checksum carried inside the file. A
// torn or corrupt entry is classified like a corrupt binding document
// (*fault.CorruptBindingError → "corrupt-binding"), counted under
// cache.corrupt, deleted, and reported to the caller as a plain miss: the
// analysis re-runs and rewrites the entry, never surfacing an error.
package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"

	"extra/internal/batch"
	"extra/internal/fault"
)

// envelope is the on-disk entry format. Sum is the FNV-1a 64-bit hash of
// the raw payload bytes, so any corruption of the payload — truncation,
// bit rot, a concatenated torn write — is caught without trusting the
// payload to describe itself.
type envelope struct {
	Sum   string          `json:"sum"`
	Entry json.RawMessage `json:"entry"`
}

// payload is the checksummed body of an entry: the report row. Directories
// written when entries also carried a serialized binding stay readable —
// the checksum covers whatever fields the file holds, and decoding ignores
// all but the row.
type payload struct {
	Result batch.Result `json:"result"`
}

// filename renders the key as a filesystem-safe, content-addressed name:
// the digest in hex plus the option fields that distinguish rows.
func (k Key) filename() string {
	ext := 0
	if k.Extended {
		ext = 1
	}
	return fmt.Sprintf("%016x%016x-v%d-e%d.json", k.Digest.Hi, k.Digest.Lo, k.Validate, ext)
}

// checksum is the envelope self-check over the serialized entry bytes.
func checksum(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// initDir creates the persistent directory if needed and primes the
// disk-tier gauges from whatever already persists there.
func (c *Cache) initDir() error {
	if err := os.MkdirAll(c.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	des, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		c.diskEntries.Add(1)
		if info, err := de.Info(); err == nil {
			c.diskBytes.Add(info.Size())
		}
	}
	return nil
}

// diskGet loads and verifies one persistent entry. Any failure past "file
// does not exist" is a corrupt entry: counted, classified, removed, and
// reported as a miss.
func (c *Cache) diskGet(k Key) (batch.Result, bool) {
	path := filepath.Join(c.cfg.Dir, k.filename())
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.corrupt(k, path, err)
		}
		return batch.Result{}, false
	}
	row, err := decodeEnvelope(data)
	if err != nil {
		c.corrupt(k, path, err)
		return batch.Result{}, false
	}
	return row, true
}

// decodeEnvelope parses and checksum-verifies an on-disk entry. The payload
// is compacted before hashing, so the check is over JSON content, not
// whitespace: the indented form the encoder writes and the compact form the
// checksum was computed over verify identically. Only "ok" rows are ever
// stored, so a row with any other outcome is as corrupt as a bad checksum.
func decodeEnvelope(data []byte) (batch.Result, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return batch.Result{}, fmt.Errorf("unparseable envelope: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Entry); err != nil {
		return batch.Result{}, fmt.Errorf("unparseable entry payload: %w", err)
	}
	if got := checksum(compact.Bytes()); got != env.Sum {
		return batch.Result{}, fmt.Errorf("checksum mismatch: file says %s, content is %s", env.Sum, got)
	}
	var p payload
	if err := json.Unmarshal(env.Entry, &p); err != nil {
		return batch.Result{}, fmt.Errorf("unparseable entry: %w", err)
	}
	if p.Result.Outcome != "ok" {
		return batch.Result{}, fmt.Errorf("cache entry has outcome %q, want \"ok\"", p.Result.Outcome)
	}
	return p.Result, nil
}

// corrupt handles a bad persistent entry: count it under its fault
// classification, delete the file so it cannot keep tripping, move on.
func (c *Cache) corrupt(k Key, path string, err error) {
	cerr := &fault.CorruptBindingError{
		Binding: k.filename(),
		Field:   "cache-entry",
		Err:     err,
	}
	c.metrics().Inc("cache.corrupt", fault.Classify(cerr))
	if info, serr := os.Stat(path); serr == nil {
		c.diskEntries.Add(-1)
		c.diskBytes.Add(-info.Size())
	}
	os.Remove(path)
	c.publishGauges()
}

// diskPut persists one entry atomically. Write failures are recorded
// (cache.write_error) but never surfaced: the memory tier already has the
// entry and the next run simply re-produces the file.
func (c *Cache) diskPut(k Key, row batch.Result) {
	if c.cfg.Dir == "" {
		return
	}
	body, err := json.Marshal(&payload{Result: row})
	if err != nil {
		c.metrics().Inc("cache.write_error", "")
		return
	}
	env := envelope{Sum: checksum(body), Entry: body}
	path := filepath.Join(c.cfg.Dir, k.filename())
	var prevSize int64 = -1
	if info, err := os.Stat(path); err == nil {
		prevSize = info.Size()
	}
	werr := batch.WriteFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&env)
	})
	if werr != nil {
		c.metrics().Inc("cache.write_error", "")
		return
	}
	if info, err := os.Stat(path); err == nil {
		if prevSize < 0 {
			c.diskEntries.Add(1)
			c.diskBytes.Add(info.Size())
		} else {
			c.diskBytes.Add(info.Size() - prevSize)
		}
	}
	c.publishGauges()
}
