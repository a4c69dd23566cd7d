package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// histExport is one histogram in the metrics JSON.
type histExport struct {
	Buckets []Bucket `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
}

// provExport is the conflict-provenance section of the metrics JSON.
type provExport struct {
	HotLines []HotLine                    `json:"hot_lines"`
	Matrix   map[string]map[string]uint64 `json:"matrix"`
}

// metricsExport is the top-level metrics JSON object. Struct fields are
// declared in alphabetical (= emitted) key order, and the map-valued
// sections rely on encoding/json's sorted map-key rendering, so the whole
// document satisfies the sorted-key export rule. Gauges is always empty;
// the key stays so the schema is unchanged.
type metricsExport struct {
	Counters   map[string]uint64     `json:"counters"`
	Cycles     []uint64              `json:"cycles"`
	Gauges     map[string]float64    `json:"gauges"`
	Histograms map[string]histExport `json:"histograms"`
	Interval   uint64                `json:"interval"`
	Meta       Meta                  `json:"meta"`
	Provenance provExport            `json:"provenance"`
	Series     map[string][]float64  `json:"series"`
}

// export assembles the full metrics document.
func (t *Telemetry) export() metricsExport {
	r := t.Reg
	r.freeze()
	out := metricsExport{
		Counters:   make(map[string]uint64, len(r.counters)),
		Cycles:     r.cycles,
		Gauges:     map[string]float64{},
		Histograms: make(map[string]histExport, len(r.hists)),
		Interval:   t.cfg.Interval,
		Meta:       t.Meta,
		Provenance: provExport{
			HotLines: t.prov.hotLines(t.cfg.HotLines),
			Matrix:   t.prov.abortMatrix(),
		},
		Series: make(map[string][]float64, len(r.series)),
	}
	if out.Cycles == nil {
		out.Cycles = []uint64{}
	}
	if out.Provenance.HotLines == nil {
		out.Provenance.HotLines = []HotLine{}
	}
	for _, c := range r.counters {
		out.Counters[c.name] = c.fn()
	}
	for _, h := range r.hists {
		b := h.h.Buckets()
		if b == nil {
			b = []Bucket{}
		}
		out.Histograms[h.name] = histExport{Buckets: b, Count: h.h.Count(), Sum: h.h.Sum()}
	}
	for _, s := range r.series {
		v := s.vals
		if v == nil {
			v = []float64{}
		}
		out.Series[s.name] = v
	}
	return out
}

// WriteMetricsJSON writes the sampled time-series, instrument totals, and
// conflict provenance as sorted-key JSON.
func (t *Telemetry) WriteMetricsJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.export())
}

// WriteMetricsCSV writes the sampled time-series as CSV: one row per
// sample, a "cycle" column followed by the series in sorted-name order.
func (t *Telemetry) WriteMetricsCSV(w io.Writer) error {
	if t == nil {
		return nil
	}
	r := t.Reg
	r.freeze()
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(r.series)+1)
	header = append(header, "cycle")
	for _, s := range r.series {
		header = append(header, s.name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i, cyc := range r.cycles {
		row[0] = strconv.FormatUint(cyc, 10)
		for j, s := range r.series {
			row[j+1] = strconv.FormatFloat(s.vals[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
