package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRecordSchemaSorted asserts the schema invariant the whole ledger
// design rests on: every Record field carries an obs tag and the json
// names are declared in strictly increasing order, which is what makes
// encoding/json emit sorted-key lines.
func TestRecordSchemaSorted(t *testing.T) {
	rt := reflect.TypeOf(Record{})
	prev := ""
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			t.Fatalf("field %s has no json name", f.Name)
		}
		switch f.Tag.Get("obs") {
		case "det", "host":
		default:
			t.Errorf("field %s: obs tag %q, want det or host", f.Name, f.Tag.Get("obs"))
		}
		if i > 0 && name <= prev {
			t.Errorf("json name %q declared after %q: record lines would not be sorted-key", name, prev)
		}
		prev = name
	}
}

func fullRecord(key string) Record {
	return Record{
		CacheHit: true, CacheSrc: "memo", Error: "boom", Events: 1, ExecCycles: 2, FusedRuns: 3,
		GCCycles: 4, HeapAllocBytes: 5, Key: key, Mallocs: 6,
		Schema: LedgerSchemaVersion, Seed: 8, TotalAllocBytes: 9, WallNS: 10,
	}
}

func TestRedactedZeroesExactlyHostFields(t *testing.T) {
	r := fullRecord("k")
	red := r.Redacted()
	rv, ov := reflect.ValueOf(red), reflect.ValueOf(r)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		isZero := rv.Field(i).IsZero()
		if f.Tag.Get("obs") == "host" && !isZero {
			t.Errorf("host field %s survived redaction: %v", f.Name, rv.Field(i))
		}
		if f.Tag.Get("obs") == "det" && !reflect.DeepEqual(rv.Field(i).Interface(), ov.Field(i).Interface()) {
			t.Errorf("det field %s changed by redaction", f.Name)
		}
	}
}

func TestLedgerSortedOutputValidates(t *testing.T) {
	var l Ledger
	for _, k := range []string{"c", "a", "b", "a"} {
		rec := fullRecord(k)
		rec.Error = ""
		l.Append(rec)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateLedger: %v\n%s", err, buf.String())
	}
	if n != 4 {
		t.Fatalf("validated %d records, want 4", n)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var keys []string
	for _, ln := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, rec.Key)
	}
	if got, want := strings.Join(keys, ""), "aabc"; got != want {
		t.Fatalf("output key order %q, want %q", got, want)
	}
}

// TestRedactedLedgersByteIdentical is the diff-based determinism story:
// two ledgers that agree on det fields but differ on every host field
// must serialize identically under Redact.
func TestRedactedLedgersByteIdentical(t *testing.T) {
	mk := func(wall int64, mallocs uint64) *Ledger {
		l := &Ledger{Redact: true}
		rec := fullRecord("k")
		rec.Error = ""
		rec.WallNS, rec.Mallocs = wall, mallocs
		l.Append(rec)
		return l
	}
	var a, b bytes.Buffer
	if _, err := mk(123, 456).WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := mk(789, 12).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("redacted ledgers differ:\n%s\n%s", a.String(), b.String())
	}
}

func TestValidateLedgerRejects(t *testing.T) {
	good := func(key string) string {
		rec := fullRecord(key)
		rec.Error = ""
		b, _ := json.Marshal(rec)
		return string(b)
	}
	// want, when set, is a substring the error must carry.
	cases := map[string]struct{ in, want string }{
		"unknown field": {in: `{"bogus":1,"key":"k","schema":3}`},
		"bad schema":    {in: `{"key":"k","schema":99}`},
		"empty key":     {in: `{"key":"","schema":3}`},
		"unsorted keys": {in: `{"schema":3,"key":"k"}`},
		"unsorted rows": {in: good("b") + "\n" + good("a")},
		"not an object": {in: `[1,2]`},
		// A schema-2 line still carries par_workers; it must fail on the
		// schema, not as an unknown field.
		"schema 2": {in: `{"events":1,"key":"k","par_workers":0,"schema":2}`, want: "schema 2, want 3"},
	}
	for name, c := range cases {
		_, err := ValidateLedger(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: ValidateLedger accepted %q", name, c.in)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
	if n, err := ValidateLedger(strings.NewReader(good("a") + "\n\n" + good("b") + "\n")); err != nil || n != 2 {
		t.Errorf("valid ledger rejected: n=%d err=%v", n, err)
	}
}

// TestProfilerNilReceiverSafe pins the typed-nil contract: every probe
// method and accessor must tolerate a nil *Profiler, because a nil
// concrete pointer wrapped in the EngineProbe interface is non-nil at the
// callsite guard.
func TestProfilerNilReceiverSafe(t *testing.T) {
	var p *Profiler
	p.EventBegin()
	p.EventEnd("core", 1)
	p.Merge(NewProfiler())
	NewProfiler().Merge(p)
	p.Render(&bytes.Buffer{})
	if p.Events() != 0 {
		t.Fatal("nil profiler reported nonzero counts")
	}
}

func TestProfilerCountsAndMerge(t *testing.T) {
	run := func() *Profiler {
		p := NewProfiler()
		for i := 0; i < 3; i++ {
			p.EventBegin()
			p.EventEnd("core", 0)
		}
		p.EventBegin()
		p.EventEnd("l1", 2)
		return p
	}
	agg := NewProfiler()
	agg.Merge(run())
	agg.Merge(run())
	if got := agg.Events(); got != 8 {
		t.Errorf("Events = %d, want 8", got)
	}
	var buf bytes.Buffer
	agg.Render(&buf)
	out := buf.String()
	for _, want := range []string{"core", "l1", "8 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	s := &TextSink{W: &buf}
	s.Event(ProgressEvent{Done: 1, Total: 12, Key: "a|b", Wall: 1500000})
	s.Event(ProgressEvent{Done: 2, Total: 12, Key: "c|d", CacheHit: true})
	s.Event(ProgressEvent{Done: 3, Total: 12, Key: "e|f", Err: "boom"})
	out := buf.String()
	for _, want := range []string{"[ 1/12]", "wall=2ms", "cached", "FAILED"} {
		if !strings.Contains(out, want) {
			t.Errorf("sink output missing %q:\n%s", want, out)
		}
	}
}

func TestMemSnapshotDelta(t *testing.T) {
	s := TakeMemSnapshot()
	sink = make([]byte, 1<<20)
	d := s.Delta()
	if d.TotalAllocBytes < 1<<20 || d.Mallocs == 0 {
		t.Errorf("delta missed a 1MB allocation: %+v", d)
	}
}

var sink []byte

// FuzzValidateLedger: ValidateLedger never panics, whatever the bytes.
func FuzzValidateLedger(f *testing.F) {
	l := &Ledger{}
	l.Append(Record{Key: "a|b|2", Seed: 1, ExecCycles: 10})
	l.Append(Record{Key: "a|b|4", Seed: 1, Error: "boom"})
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":3,"key":"k","extra":1}`))
	f.Add([]byte(`{"key":"k","schema":3}` + "\n" + `[1,2]`))
	f.Add([]byte("\n\n{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any verdict is fine; the property is that there is one.
		_, _ = ValidateLedger(bytes.NewReader(data))
	})
}
