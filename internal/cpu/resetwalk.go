package cpu

import (
	"fmt"
	"reflect"
	"strings"
	"unsafe"

	"repro/internal/cache"
)

// ResetDiff deep-compares two machines field by field — exported and
// unexported alike — and returns a human-readable path for every place
// their state differs. It is the enforcement arm of the Machine.Reset
// bit-identity contract: a reset machine must be indistinguishable from a
// freshly built one of the same shape and inputs, except for deliberately
// warm capacity. An empty result means the two machines will simulate
// identically.
//
// The walk follows every pointer, slice, array, struct, map, and interface
// reachable from the machine. Three classes of state get special treatment,
// each of which must be justified by a behavior-neutrality argument:
//
//   - warm pools (the protocol-message, MSHR, pending-tracker and dirLine
//     free lists, and the middle cache's promote and flush payloads) are
//     skipped: entries are fully normalized when handed out, so pool
//     population is invisible;
//   - generation-reset cache arrays compare by shape plus Pristine(), not
//     bytes: stale entries from a previous generation read as Invalid;
//   - grown line tables (directory, MSHR) compare by live population, not
//     capacity: lookups are order-insensitive and growth is a deterministic
//     function of the insertion history, so an empty grown table behaves
//     exactly like an empty fresh one;
//   - core sets must be empty on both sides; the length of their all-zero
//     extension words is warm capacity.
//
// Functions and channels compare by nil-ness only (closure identity is
// meaningless across machines); slices compare by length and elements, so
// retained capacity is invisible, exactly as it is to the simulation.
func ResetDiff(fresh, reset *Machine) []string {
	w := &resetWalker{visited: make(map[[2]unsafe.Pointer]bool)}
	w.walk("Machine", reflect.ValueOf(fresh).Elem(), reflect.ValueOf(reset).Elem())
	return w.diffs
}

// resetWalkSkip lists struct fields the walk does not compare, as
// "pkgpath.Type.field" — each entry is a warm pool whose population is
// invisible to the simulation (see ResetDiff).
var resetWalkSkip = map[string]bool{
	"coherence.System.msgFree":  true, // messages are fully overwritten on send
	"coherence.L1.mshrFree":     true, // newMshr normalizes (parkSeq equality-only)
	"coherence.L1.mshrScratch":  true, // rebuilt from the table on every use
	"coherence.Bank.pendFree":   true, // newPending zeroes on hand-out
	"coherence.Bank.dirFree":    true, // Bank.line normalizes on hand-out
	"coherence.L1.midCtxFree":   true, // newMidCtx overwrites every field on hand-out
	"coherence.L1.midFlushFree": true, // newMidFlush overwrites every field on hand-out
	"htm.WakeSet.scratch":       true, // rebuilt from the bitmap on every drain
}

// resetDiffLimit caps the reported paths; past this many the machines are
// thoroughly different and more detail is noise.
const resetDiffLimit = 32

type resetWalker struct {
	diffs   []string
	visited map[[2]unsafe.Pointer]bool
}

func (w *resetWalker) report(path, format string, args ...any) {
	if len(w.diffs) < resetDiffLimit {
		w.diffs = append(w.diffs, path+": "+fmt.Sprintf(format, args...))
	}
}

func (w *resetWalker) walk(path string, a, b reflect.Value) {
	if len(w.diffs) >= resetDiffLimit {
		return
	}
	switch a.Kind() {
	case reflect.Ptr:
		if a.IsNil() != b.IsNil() {
			w.report(path, "nil %v vs %v", a.IsNil(), b.IsNil())
			return
		}
		if a.IsNil() || a.Pointer() == b.Pointer() {
			return
		}
		key := [2]unsafe.Pointer{unsafe.Pointer(a.Pointer()), unsafe.Pointer(b.Pointer())}
		if w.visited[key] {
			return
		}
		w.visited[key] = true
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			w.report(path, "nil %v vs %v", a.IsNil(), b.IsNil())
			return
		}
		if a.IsNil() {
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			w.report(path, "dynamic type %v vs %v", a.Elem().Type(), b.Elem().Type())
			return
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			w.report(path, "nil %v vs %v", a.IsNil(), b.IsNil())
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			w.report(path, "len %d vs %d", a.Len(), b.Len())
			return
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				w.report(path, "key %v missing on reset side", iter.Key())
				continue
			}
			w.walk(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), bv)
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			w.report(path, "len %d vs %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Struct:
		if w.structSpecial(path, a, b) {
			return
		}
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if resetWalkSkip[t.String()+"."+f.Name] {
				continue
			}
			w.walk(path+"."+f.Name, a.Field(i), b.Field(i))
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.report(path, "%v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.report(path, "%d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.report(path, "%d vs %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			w.report(path, "%v vs %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.report(path, "%q vs %q", a.String(), b.String())
		}
	default:
		w.report(path, "uncomparable kind %v", a.Kind())
	}
}

// structSpecial applies the type-level equivalence comparators (see
// ResetDiff). It reports true when the type was fully handled.
func (w *resetWalker) structSpecial(path string, a, b reflect.Value) bool {
	name := a.Type().String()
	if strings.HasPrefix(name, "coherence.lineTable[") {
		w.wantZeroField(path, a, b, "live")
		return true
	}
	switch name {
	case "cache.Array":
		aa := (*cache.Array)(unsafe.Pointer(a.UnsafeAddr()))
		bb := (*cache.Array)(unsafe.Pointer(b.UnsafeAddr()))
		if !aa.SameShape(bb) {
			w.report(path, "cache shape differs")
		} else if !aa.Pristine() {
			w.report(path, "fresh-side cache not pristine")
		} else if !bb.Pristine() {
			w.report(path, "reset-side cache not pristine")
		}
		return true
	case "htm.CoreSet":
		w.wantEmptyBitmap(path+" (fresh)", a)
		w.wantEmptyBitmap(path+" (reset)", b)
		return true
	}
	return false
}

// wantZeroField asserts an integer field is zero on both sides — the
// emptiness invariant grown tables compare by instead of capacity.
func (w *resetWalker) wantZeroField(path string, a, b reflect.Value, name string) {
	if v := a.FieldByName(name).Int(); v != 0 {
		w.report(path+"."+name, "fresh side %d, want 0", v)
	}
	if v := b.FieldByName(name).Int(); v != 0 {
		w.report(path+"."+name, "reset side %d, want 0", v)
	}
}

// wantEmptyBitmap asserts a CoreSet (w0 uint64 + ext []uint64) holds no
// bits; ext length is warm capacity and invisible when all-zero.
func (w *resetWalker) wantEmptyBitmap(path string, v reflect.Value) {
	if x := v.FieldByName("w0").Uint(); x != 0 {
		w.report(path+".w0", "%#x, want 0", x)
	}
	ext := v.FieldByName("ext")
	for i := 0; i < ext.Len(); i++ {
		if x := ext.Index(i).Uint(); x != 0 {
			w.report(fmt.Sprintf("%s.ext[%d]", path, i), "%#x, want 0", x)
		}
	}
}
