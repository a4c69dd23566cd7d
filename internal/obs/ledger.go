// The structured run ledger: one schema-versioned JSONL record per harness
// execution, written sorted-key so records are byte-stable modulo the
// explicitly host-tagged fields (zeroed by Redacted for diff-based tests).

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"
)

// LedgerSchemaVersion is stamped into every record; ValidateLedger rejects
// records from any other version so schema drift fails loudly. Version 2
// added CacheSrc (which cache satisfied a hit: memo or disk); version 3
// dropped par_workers with the sharded engine; version 4 dropped fused_runs
// with the event-fusion fast path.
const LedgerSchemaVersion = 4

// Record is one run's ledger entry. Fields are declared in alphabetical
// json-name order — encoding/json emits struct fields in declaration
// order, so this is what makes every line sorted-key and therefore
// byte-comparable. Each field carries an obs tag: "det" values are
// functions of the spec and seed alone (byte-identical across same-seed
// runs); "host" values depend on the machine the run happened on and are
// zeroed by Redacted.
type Record struct {
	// CacheHit reports whether the result came from a cache (the runner's
	// memo, a loaded results file, or the on-disk sweep cache) instead of
	// a fresh execution.
	CacheHit bool `json:"cache_hit" obs:"det"`
	// CacheSrc names the cache that satisfied a hit: "memo" for the
	// runner's in-process memo (and loaded results files), "disk" for the
	// persistent content-addressed store. Empty — and omitted — for fresh
	// executions.
	CacheSrc string `json:"cache_src,omitempty" obs:"det"`
	// Error is the execution error, if any ("" on success and then
	// omitted, so success records carry no empty field).
	Error string `json:"error,omitempty" obs:"det"`
	// Events is the number of simulation events executed.
	Events uint64 `json:"events" obs:"det"`
	// ExecCycles is the simulated makespan.
	ExecCycles uint64 `json:"exec_cycles" obs:"det"`
	// GCCycles, HeapAllocBytes, Mallocs, TotalAllocBytes are the host
	// allocator readings for the run (MemDelta).
	GCCycles       uint32 `json:"gc_cycles" obs:"host"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes" obs:"host"`
	// Key is the spec's memo key (harness.Spec.Key).
	Key     string `json:"key" obs:"det"`
	Mallocs uint64 `json:"mallocs" obs:"host"`
	// Schema is LedgerSchemaVersion.
	Schema int `json:"schema" obs:"det"`
	// Seed is the simulation seed.
	Seed            uint64 `json:"seed" obs:"det"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes" obs:"host"`
	// WallNS is the host wall time of the execution in nanoseconds
	// (0 for cache hits).
	WallNS int64 `json:"wall_ns" obs:"host"`
}

// Redacted returns a copy with every host-tagged field zeroed. Two
// same-seed runs of the same sweep produce byte-identical redacted
// ledgers; the nightly determinism job diffs exactly that.
func (r Record) Redacted() Record {
	v := reflect.ValueOf(&r).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Tag.Get("obs") == "host" {
			v.Field(i).SetZero()
		}
	}
	return r
}

// Ledger accumulates run records and writes them as JSONL. Append is safe
// for concurrent use (sweep workers finish in arbitrary order); WriteTo
// sorts by key so the output is independent of completion order.
type Ledger struct {
	// Redact, when set, writes every record through Redacted — the
	// -obs-redact mode of the CLIs.
	Redact bool

	mu   sync.Mutex
	recs []Record
}

// Append adds one record, stamping the schema version.
func (l *Ledger) Append(r Record) {
	r.Schema = LedgerSchemaVersion
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// Len returns the number of appended records.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// WriteTo emits the ledger as JSONL, one record per line, sorted by key
// (ties keep append order). The byte stream is deterministic for a given
// record set, so sweeps are diffable regardless of worker scheduling.
func (l *Ledger) WriteTo(w io.Writer) (int64, error) {
	l.mu.Lock()
	recs := make([]Record, len(l.recs))
	copy(recs, l.recs)
	l.mu.Unlock()
	sortRecords(recs)
	var n int64
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if l.Redact {
			r = r.Redacted()
		}
		b, err := json.Marshal(r)
		if err != nil {
			return n, err
		}
		k, err := bw.Write(append(b, '\n'))
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// sortRecords is a stable insertion sort by Key — the record count is a
// sweep's spec count, far below where O(n log n) matters, and stability
// keeps duplicate-key records (the same spec swept twice) in append order.
func sortRecords(recs []Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Key < recs[j-1].Key; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// ValidateLedger checks a JSONL ledger stream: every line must carry the
// current schema version (checked first, so a line from an older schema
// fails with a schema error rather than an unknown-field one), decode
// strictly into Record (unknown fields rejected), have a non-empty key,
// emit its keys in sorted order, and the lines themselves must be sorted
// by record key. Returns the record count.
func ValidateLedger(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	prevKey := ""
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		n++
		var head struct {
			Schema int `json:"schema"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return n, fmt.Errorf("obs: ledger line %d: %w", n, err)
		}
		if head.Schema != LedgerSchemaVersion {
			return n, fmt.Errorf("obs: ledger line %d: schema %d, want %d", n, head.Schema, LedgerSchemaVersion)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return n, fmt.Errorf("obs: ledger line %d: %w", n, err)
		}
		if rec.Key == "" {
			return n, fmt.Errorf("obs: ledger line %d: empty key", n)
		}
		if err := checkSortedKeys(line); err != nil {
			return n, fmt.Errorf("obs: ledger line %d: %w", n, err)
		}
		if n > 1 && rec.Key < prevKey {
			return n, fmt.Errorf("obs: ledger line %d: key %q sorts before previous %q", n, rec.Key, prevKey)
		}
		prevKey = rec.Key
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("obs: ledger: %w", err)
	}
	return n, nil
}

// checkSortedKeys verifies one flat JSON object emits its keys in sorted
// order. Records are flat by construction, so a single-level walk is
// enough (telemetry's validator handles the general nested case).
func checkSortedKeys(line []byte) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("record is not a JSON object")
	}
	prev := ""
	first := true
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, ok := tok.(string)
		if !ok {
			return fmt.Errorf("non-string object key %v", tok)
		}
		if !first && key <= prev {
			return fmt.Errorf("key %q not sorted after %q", key, prev)
		}
		first, prev = false, key
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return err
		}
	}
	return nil
}
