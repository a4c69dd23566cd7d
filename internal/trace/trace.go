// Package trace is the simulator's model-event stream and its text tracer.
// The model packages (cpu, coherence, noc, stats) report each occurrence as
// one Event to one Observer, behind one nil guard that the tracehook
// analyzer checks, so an unobserved run pays one pointer test per site:
//
//	if o := l1.sys.Obs; o != nil {
//		o.Event(trace.Event{Kind: trace.KindSwitchDeny, Core: l1.core})
//	}
//
// The Tracer and the telemetry layer are the Observers; cpu.Machine.Observe
// joins them with a Tee. Events carry values only, never a pointer into
// model state, so the Tracer can keep them and format its lines at Render,
// after the pooled messages they came from were recycled.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/htm"
	"repro/internal/mem"
)

// Observer receives the model's events in simulation order. Event must not
// change model state.
type Observer interface {
	Event(Event)
}

// Tee delivers each event to every observer in it, in order.
type Tee []Observer

// Event implements Observer.
func (t Tee) Event(e Event) {
	for _, o := range t {
		o.Event(e)
	}
}

// Kind says what an Event reports; its comment lists the fields it sets
// besides Core. The first nineteen kinds have a text line in the category
// they are grouped under; the last four only feed telemetry.
type Kind uint8

const (
	// CatTx. The L1 reports its commit or abort before the wake-ups it
	// sends; the core reports its attempt's outcome after them.
	KindXBegin   Kind = iota // Section, Attempt: a speculative attempt starts
	KindFallback             // Section, Count (retries so far): the section takes the fallback path
	KindCommit               // Attempt, Reads, Writes: the L1 commits the HTM transaction
	KindAbort                // Cause, Attempt, Reads, Writes: the L1 aborts it
	// CatHTMLock.
	KindHLEnd       // Mode (the one left), Reads, Writes: hlend
	KindSwitchGrant // switchingMode granted: the transaction is now STL
	KindSwitchDeny  // switchingMode denied
	KindSigSpill    // Line, Read, Write: a lock transaction's line spills to the signatures
	KindSigReject   // Line, Peer (requester): the LLC bank Core rejects a signature hit
	// CatLock.
	KindLockAcquire // Line, Held, Count (waiters): the core starts to take the fallback lock
	KindLockRelease // Line, Count (waiters): the core starts to release it
	// CatProto.
	KindRequest // Line, Msg, Prio, Mode: the L1 sends a request
	KindNack    // Line, Src (the NACKing owner), Dst (the requester): the bank serves from the LLC
	KindBackInv // Line: the LLC bank Core back-invalidates the line
	// CatConflict.
	KindRejected  // Line, Mode (the rejector's): the L1's request was rejected
	KindRejectFwd // Line, Msg, Peer (requester), Prio, PeerPrio: the owner rejects a forward
	// CatNoC. Core is Src for the first two and Dst for the third.
	KindEnqueue // Src, Dst, Count (flits), Hops: a message enters the links
	KindStall   // Src, Dst, Wait: it queued behind earlier messages
	KindDequeue // Src, Dst, End (tail-flit arrival): its delivery is scheduled

	// No text line.
	KindSegment       // Seg, Start, End: a closed non-empty cycle segment of the core
	KindConflict      // Line, Peer (winner), Read, Write (the loser Core's involvement), Aborted
	KindAttemptCommit // Section, Attempt, Start (begin cycle), Switched (committed as STL)
	KindAttemptAbort  // Section, Attempt, Start (begin cycle), Cause
	numKinds
)

// Event is one model occurrence. Only Kind, Core and the fields Kind lists
// are set.
type Event struct {
	Cycle uint64   // stamped by the Tracer as it keeps the event
	Core  int      // acting core, or LLC bank for the bank kinds
	Line  mem.Line // 0 when not line-addressed
	Msg   string   // the message type's name

	Peer             int    // the other core: a requester, or a conflict's winner
	Src, Dst         int    // a message's source and destination tiles
	Section, Attempt int    // program section index and attempt number
	Reads, Writes    int    // transaction read- and write-set sizes in lines
	Count            int    // retries, lock waiters or flits, by kind
	Hops             int    // route length in links
	Prio, PeerPrio   uint64 // own and requester priority
	Start, End, Wait uint64 // cycle values, by kind

	Kind  Kind
	Mode  htm.Mode
	Cause htm.AbortCause
	Seg   uint8 // a segment's stats.Category

	Read, Write, Held, Aborted, Switched bool
}

// Category classifies text lines for filtering.
type Category uint8

const (
	// CatProto: coherence requests, fills, forwards, NACKs.
	CatProto Category = iota
	// CatConflict: conflict detection and arbitration outcomes.
	CatConflict
	// CatTx: transaction begin/commit/abort and fallback decisions.
	CatTx
	// CatHTMLock: TL/STL entry, signature spills, LLC arbitration.
	CatHTMLock
	// CatLock: fallback-lock acquire/release/handover.
	CatLock
	// CatNoC: interconnect activity — link enqueue, serialization stalls,
	// and message delivery.
	CatNoC
	numCategories
	noText = numCategories // the kinds without a text line
)

// kindCat maps each kind to its text line's category.
var kindCat = [numKinds]Category{
	KindXBegin: CatTx, KindFallback: CatTx, KindCommit: CatTx, KindAbort: CatTx,
	KindHLEnd: CatHTMLock, KindSwitchGrant: CatHTMLock, KindSwitchDeny: CatHTMLock,
	KindSigSpill: CatHTMLock, KindSigReject: CatHTMLock,
	KindLockAcquire: CatLock, KindLockRelease: CatLock,
	KindRequest: CatProto, KindNack: CatProto, KindBackInv: CatProto,
	KindRejected: CatConflict, KindRejectFwd: CatConflict,
	KindEnqueue: CatNoC, KindStall: CatNoC, KindDequeue: CatNoC,
	KindSegment: noText, KindConflict: noText, KindAttemptCommit: noText, KindAttemptAbort: noText,
}

func (c Category) String() string {
	names := [...]string{"proto", "conflict", "tx", "htmlock", "lock", "noc"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// ParseCategories parses a comma-separated filter list ("tx,conflict").
// An empty string, or "all" anywhere in the list, enables every category;
// an unknown name is an error even beside "all".
func ParseCategories(s string) (map[Category]bool, error) {
	out := make(map[Category]bool)
	if s == "" {
		s = "all"
	}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for c := Category(0); c < numCategories; c++ {
			if name == "all" || c.String() == name {
				out[c] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("trace: unknown category %q", name)
		}
	}
	return out, nil
}

// String renders the event as its trace line.
func (e Event) String() string {
	cat := kindCat[e.Kind]
	if e.Line != 0 {
		return fmt.Sprintf("%10d c%02d [%s] line=%d %s", e.Cycle, e.Core, cat, e.Line, e.text())
	}
	return fmt.Sprintf("%10d c%02d [%s] %s", e.Cycle, e.Core, cat, e.text())
}

// text is the line's message: everything after the category and line.
func (e Event) text() string {
	switch e.Kind {
	case KindXBegin:
		return fmt.Sprintf("xbegin section=%d attempt=%d", e.Section, e.Attempt)
	case KindFallback:
		return fmt.Sprintf("fallback section=%d after %d retries", e.Section, e.Count)
	case KindCommit:
		return fmt.Sprintf("commit attempt=%d reads=%d writes=%d", e.Attempt, e.Reads, e.Writes)
	case KindAbort:
		return fmt.Sprintf("abort cause=%v attempt=%d reads=%d writes=%d", e.Cause, e.Attempt, e.Reads, e.Writes)
	case KindHLEnd:
		return fmt.Sprintf("hlend from %v reads=%d writes=%d", e.Mode, e.Reads, e.Writes)
	case KindSwitchGrant:
		return "switchingMode granted: now STL"
	case KindSwitchDeny:
		return "switchingMode denied"
	case KindSigSpill:
		return fmt.Sprintf("signature spill r=%v w=%v", e.Read, e.Write)
	case KindSigReject:
		return fmt.Sprintf("LLC signature reject for c%d", e.Peer)
	case KindLockAcquire:
		return fmt.Sprintf("lock acquire (held=%v waiters=%d)", e.Held, e.Count)
	case KindLockRelease:
		return fmt.Sprintf("lock release (waiters=%d)", e.Count)
	case KindRequest:
		return fmt.Sprintf("%v prio=%d mode=%v", e.Msg, e.Prio, e.Mode)
	case KindNack:
		return fmt.Sprintf("NACK from c%d: serve LLC to c%d", e.Src, e.Dst)
	case KindBackInv:
		return "back-invalidation"
	case KindRejected:
		return fmt.Sprintf("request rejected by %v", e.Mode)
	case KindRejectFwd:
		return fmt.Sprintf("reject %v from c%d (own prio %d vs %d)", e.Msg, e.Peer, e.Prio, e.PeerPrio)
	case KindEnqueue:
		return fmt.Sprintf("enqueue %d->%d flits=%d hops=%d", e.Src, e.Dst, e.Count, e.Hops)
	case KindStall:
		return fmt.Sprintf("serialization stall %d->%d wait=%d", e.Src, e.Dst, e.Wait)
	case KindDequeue:
		return fmt.Sprintf("dequeue %d->%d at=%d", e.Src, e.Dst, e.End)
	}
	return ""
}

// Tracer is the text-trace Observer. It keeps the last n events of its
// categories in a ring and formats them only at Render.
type Tracer struct {
	cats  [numCategories + 1]bool // cats[noText] stays false
	ring  []Event
	size  int
	next  int
	total uint64
	// Now supplies the current cycle; installed by the machine.
	Now func() uint64
}

// New creates a tracer keeping the last n events of the given categories
// (nil cats = all categories). The ring grows to n as events arrive; n must
// be at least 1.
func New(n int, cats map[Category]bool) *Tracer {
	if n < 1 {
		panic(fmt.Sprintf("trace: New(%d): a tracer must retain at least 1 event", n))
	}
	t := &Tracer{size: n}
	for c := Category(0); c < numCategories; c++ {
		t.cats[c] = cats == nil || cats[c]
	}
	return t
}

// Event implements Observer: an event whose kind has a text line in a
// recorded category is stamped with the current cycle and kept.
func (t *Tracer) Event(e Event) {
	if !t.cats[kindCat[e.Kind]] {
		return
	}
	if t.Now != nil {
		e.Cycle = t.Now()
	}
	t.total++
	if len(t.ring) < t.size {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % t.size
}

// Total returns the number of events recorded (including evicted ones).
func (t *Tracer) Total() uint64 { return t.total }

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	return append(append([]Event(nil), t.ring[t.next:]...), t.ring[:t.next]...)
}

// Render writes the retained events, one per line, oldest first.
func (t *Tracer) Render(w io.Writer) {
	for _, part := range [2][]Event{t.ring[t.next:], t.ring[:t.next]} {
		for _, e := range part {
			fmt.Fprintln(w, e.String())
		}
	}
	fmt.Fprintf(w, "(%d events recorded, %d retained)\n", t.total, len(t.ring))
}
