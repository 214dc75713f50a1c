package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the registry.
//
// Name mangling: a registry metric name becomes a Prometheus metric name
// by replacing every character outside [a-zA-Z0-9_:] with '_' (so dots
// become underscores: "server.latency.ns" -> "server_latency_ns") and
// prefixing '_' when the first character is a digit. The registry's single
// label dimension is exported as {label="..."}.
//
// Series mapping:
//
//   - counters -> counter families;
//   - gauges -> gauge families;
//   - histograms -> summary families: {quantile="0.5|0.9|0.99|0.999"}
//     series plus _sum and _count, with _min/_max as companion gauges and
//     the rolling window as a separate _window summary family.

// PromName mangles a registry metric name into a legal Prometheus metric
// name (see the package rules above).
func PromName(metric string) string {
	var b strings.Builder
	b.Grow(len(metric) + 1)
	for i := 0; i < len(metric); i++ {
		c := metric[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format: backslash,
// double quote, and newline must be backslash-escaped.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promSeries renders `name{label="...",extra} value` with the label pair
// omitted when the registry label is empty.
func promSeries(w io.Writer, name, label, extra string, value any) error {
	var labels string
	switch {
	case label != "" && extra != "":
		labels = fmt.Sprintf(`{label=%q,%s}`, promLabel(label), extra)
	case label != "":
		labels = fmt.Sprintf(`{label=%q}`, promLabel(label))
	case extra != "":
		labels = "{" + extra + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s %v\n", name, labels, value)
	return err
}

// WriteProm writes the snapshot in Prometheus text exposition format, one
// TYPE header per family, series in the snapshot's deterministic
// (metric, label) order.
func (r *Registry) WriteProm(w io.Writer) error {
	snap := r.Snapshot()
	bw := bufio.NewWriter(w)
	typed := map[string]bool{}
	header := func(name, typ string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
		}
	}
	for _, c := range snap.Counters {
		name := PromName(c.Metric)
		header(name, "counter")
		promSeries(bw, name, c.Label, "", c.Value)
	}
	for _, g := range snap.Gauges {
		name := PromName(g.Metric)
		header(name, "gauge")
		promSeries(bw, name, g.Label, "", g.Value)
	}
	quantileSeries := func(name, label string, q Quantiles) {
		for _, qv := range []struct {
			q string
			v uint64
		}{{"0.5", q.P50}, {"0.9", q.P90}, {"0.99", q.P99}, {"0.999", q.P999}} {
			promSeries(bw, name, label, `quantile="`+qv.q+`"`, qv.v)
		}
	}
	// All series of one family must stay contiguous, so each run of
	// histogram snapshots sharing a metric (they arrive sorted) is emitted
	// family by family: summary, then _min, _max, and _window companions.
	for i := 0; i < len(snap.Histograms); {
		j := i
		for j < len(snap.Histograms) && snap.Histograms[j].Metric == snap.Histograms[i].Metric {
			j++
		}
		run := snap.Histograms[i:j]
		name := PromName(run[0].Metric)
		header(name, "summary")
		for _, h := range run {
			quantileSeries(name, h.Label, h.Quantiles)
			promSeries(bw, name+"_sum", h.Label, "", h.Sum)
			promSeries(bw, name+"_count", h.Label, "", h.Count)
		}
		header(name+"_min", "gauge")
		for _, h := range run {
			promSeries(bw, name+"_min", h.Label, "", h.Min)
		}
		header(name+"_max", "gauge")
		for _, h := range run {
			promSeries(bw, name+"_max", h.Label, "", h.Max)
		}
		windowed := false
		for _, h := range run {
			if h.Window != nil {
				windowed = true
			}
		}
		if windowed {
			header(name+"_window", "summary")
			for _, h := range run {
				if win := h.Window; win != nil {
					quantileSeries(name+"_window", h.Label, win.Quantiles)
					promSeries(bw, name+"_window_sum", h.Label, "", win.Sum)
					promSeries(bw, name+"_window_count", h.Label, "", win.Count)
				}
			}
		}
		i = j
	}
	return bw.Flush()
}
