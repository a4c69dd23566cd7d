package telemetry

import (
	"encoding/json"
	"io"
	"strconv"
)

// chromeEvent is one Chrome-trace-event object. JSON field order (and
// therefore key order in the output) is alphabetical, matching the
// sorted-key rule every telemetry export follows. Cycles are rendered as
// microseconds (ts/dur), so one trace microsecond == one simulated cycle.
type chromeEvent struct {
	Args map[string]any `json:"args,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Dur  uint64         `json:"dur,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	S    string         `json:"s,omitempty"`
	Tid  int            `json:"tid"`
	Ts   uint64         `json:"ts"`
}

// chromeTrace accumulates trace events in recording order. Spans come from
// the stats segment sink (one ph:"X" duration event per closed segment),
// transaction lifecycles become flow events (ph:"s" at xbegin bound to
// ph:"f" at commit/abort) plus instants carrying the outcome.
type chromeTrace struct {
	events  []chromeEvent
	flowSeq uint64
	// openFlow[core] is the flow id of the core's in-flight attempt (0 =
	// none): begin allocates, end binds and clears.
	openFlow []uint64
}

func newChromeTrace() *chromeTrace { return &chromeTrace{} }

// metadata emits the process/thread naming events Perfetto shows in the
// track headers.
func (c *chromeTrace) metadata(cores int) {
	c.openFlow = make([]uint64, cores)
	c.events = append(c.events, chromeEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "lockillersim"},
	})
	for i := 0; i < cores; i++ {
		c.events = append(c.events, chromeEvent{
			Name: "thread_name", Ph: "M", Tid: i,
			Args: map[string]any{"name": "core " + strconv.Itoa(i)},
		})
	}
}

// span records one per-core execution segment as a duration event.
func (c *chromeTrace) span(core int, cat string, ts, dur uint64) {
	c.events = append(c.events, chromeEvent{
		Cat: "cycles", Dur: dur, Name: cat, Ph: "X", Tid: core, Ts: ts,
	})
}

// txBegin opens a transaction flow.
func (c *chromeTrace) txBegin(core, section, attempt int, ts uint64) {
	c.flowSeq++
	if core < len(c.openFlow) {
		c.openFlow[core] = c.flowSeq
	}
	c.events = append(c.events,
		chromeEvent{
			Cat: "tx", Name: "xbegin", Ph: "i", S: "t", Tid: core, Ts: ts,
			Args: map[string]any{"attempt": attempt, "section": section},
		},
		chromeEvent{Cat: "tx", ID: c.flowSeq, Name: "tx", Ph: "s", Tid: core, Ts: ts})
}

// txEnd closes the core's open transaction flow with its outcome.
func (c *chromeTrace) txEnd(core, section, attempt int, ts uint64, what string) {
	c.events = append(c.events, chromeEvent{
		Cat: "tx", Name: what, Ph: "i", S: "t", Tid: core, Ts: ts,
		Args: map[string]any{"attempt": attempt, "section": section},
	})
	if core < len(c.openFlow) && c.openFlow[core] != 0 {
		c.events = append(c.events, chromeEvent{
			Bp: "e", Cat: "tx", ID: c.openFlow[core], Name: "tx", Ph: "f", Tid: core, Ts: ts,
		})
		c.openFlow[core] = 0
	}
}

// chromeExport is the top-level trace JSON object.
type chromeExport struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace writes the recorded events as Chrome-trace-event JSON,
// loadable in ui.perfetto.dev or chrome://tracing. Chrome recording must
// have been enabled in the Config.
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	events := []chromeEvent{}
	if t.chrome != nil {
		events = t.chrome.events
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeExport{DisplayTimeUnit: "ms", TraceEvents: events})
}
