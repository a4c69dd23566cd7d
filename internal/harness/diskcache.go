package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/stats"
)

// The persistent sweep cache: one content-addressed JSON file per
// (spec key, seed, schema version) under a directory (out/cache/ by
// convention). The store is incremental — every fresh result lands as its
// own file the moment it finishes, so an interrupted sweep loses nothing and
// repeated sweeps are near-free. Entries are addressed by a hash of the key;
// keys are never parsed back. The schema version is part of the address, so
// a format change simply misses old entries instead of misreading them.

// diskCacheSchema versions the stored entry format; bump it whenever the
// stats.Run encoding or the entry envelope changes shape.
const diskCacheSchema = 1

// DiskCache is a content-addressed result store rooted at a directory.
type DiskCache struct {
	dir string
}

// OpenDiskCache opens (creating if needed) a disk cache rooted at dir.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: disk cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (d *DiskCache) Dir() string { return d.dir }

// diskEntry is the stored envelope. Key and Seed are repeated inside the
// file so Load can verify the content matches the address (a truncated or
// hand-edited file misses instead of serving the wrong spec's result).
type diskEntry struct {
	Schema int        `json:"schema"`
	Seed   uint64     `json:"seed"`
	Key    string     `json:"key"`
	Run    *stats.Run `json:"run"`
}

// path derives the content address: a hash of (schema, seed, key) so every
// identity component is part of the filename and collisions across schema
// versions or seeds are impossible.
func (d *DiskCache) path(key string, seed uint64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%d|%s", diskCacheSchema, seed, key)))
	return filepath.Join(d.dir, hex.EncodeToString(h[:])+".json")
}

// Load returns the stored result for (key, seed), or ok=false on any kind
// of miss — absent file, undecodable content, an envelope that does not
// match the address, or a run that is not well formed.
func (d *DiskCache) Load(key string, seed uint64) (*stats.Run, bool) {
	b, err := os.ReadFile(d.path(key, seed))
	if err != nil {
		return nil, false
	}
	var e diskEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, false
	}
	if e.Schema != diskCacheSchema || e.Seed != seed || e.Key != key || !wellFormed(e.Run) {
		return nil, false
	}
	return e.Run, true
}

// wellFormed reports whether a decoded run has what every reader of a
// stats.Run assumes: at least one thread and exactly one non-nil core
// record per thread.
func wellFormed(r *stats.Run) bool {
	if r == nil || r.Threads < 1 || len(r.Cores) != r.Threads {
		return false
	}
	for _, c := range r.Cores {
		if c == nil {
			return false
		}
	}
	return true
}

// Store writes one result. The write goes through a temp file and a rename
// so concurrent sweep workers (or an interrupt mid-write) can never leave a
// torn entry at the final address.
func (d *DiskCache) Store(key string, seed uint64, run *stats.Run) error {
	b, err := json.Marshal(diskEntry{Schema: diskCacheSchema, Seed: seed, Key: key, Run: run})
	if err != nil {
		return fmt.Errorf("harness: disk cache: %w", err)
	}
	final := d.path(key, seed)
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("harness: disk cache: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: disk cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: disk cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: disk cache: %w", err)
	}
	return nil
}
