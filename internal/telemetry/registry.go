package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry names instruments and renders them in the Prometheus text
// exposition format (version 0.0.4) — the format every Prometheus
// scraper and promtool accept. Instruments are registered once at
// setup; scrapes read their current values, so registration order and
// scrape concurrency never touch the hot path.
//
// A name may carry a fixed label set in braces — "flaps_total{dest=\"3\"}"
// — in which case HELP/TYPE lines are emitted once per base name.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	byName  map[string]bool
	hooks   []func()

	// renderMu serializes scrapes so state a scrape hook pins for the
	// duration of one render is not clobbered by a concurrent scrape.
	renderMu sync.Mutex
}

type entry struct {
	name, help, typ string // typ: "counter", "gauge" or "histogram"
	read            func() float64
	hist            *Histogram
	scale           float64 // histogram sample → exposed unit divisor
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]bool)} }

func (r *Registry) add(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[e.name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", e.name))
	}
	r.byName[e.name] = true
	r.entries = append(r.entries, e)
}

// AddCounter exposes c — a Counter or a StripedCounter — under name
// (conventionally ending in _total).
func (r *Registry) AddCounter(name, help string, c interface{ Load() uint64 }) {
	r.add(entry{name: name, help: help, typ: "counter", read: func() float64 { return float64(c.Load()) }})
}

// AddGauge exposes g under name.
func (r *Registry) AddGauge(name, help string, g *Gauge) {
	r.add(entry{name: name, help: help, typ: "gauge", read: func() float64 { return float64(g.Load()) }})
}

// AddGaugeFunc exposes a value computed at scrape time — for readings
// derived from existing state (snapshot version, topology size) that
// would be wasteful to mirror into a Gauge on every change.
func (r *Registry) AddGaugeFunc(name, help string, fn func() float64) {
	r.add(entry{name: name, help: help, typ: "gauge", read: fn})
}

// AddHistogram exposes h under name. Bucket edges and the sum are
// divided by scale (use 1e9 for nanosecond histograms exposed in
// seconds, Prometheus's base unit; ≤ 0 means 1).
func (r *Registry) AddHistogram(name, help string, h *Histogram, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	r.add(entry{name: name, help: help, typ: "histogram", hist: h, scale: scale})
}

// AddScrapeHook registers fn to run at the start of every scrape,
// before any instrument is read. Gauge funcs derived from shared
// mutable state (an atomically swapped snapshot, say) are read lazily
// one after another, so a swap racing the scrape can make two gauges
// report different generations; a scrape hook lets the owner pin one
// generation for the whole render, and the registry serializes scrapes
// so the pin holds until the render finishes.
func (r *Registry) AddScrapeHook(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// baseName strips a {label} suffix.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelPart returns the {label} suffix including braces, or "".
func labelPart(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return ""
}

// WritePrometheus renders every registered instrument, sorted by name,
// with HELP/TYPE headers emitted once per metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.renderMu.Lock()
	defer r.renderMu.Unlock()
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	seenFamily := make(map[string]bool)
	for _, e := range entries {
		base := baseName(e.name)
		if !seenFamily[base] {
			seenFamily[base] = true
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, e.typ); err != nil {
				return err
			}
		}
		if e.typ == "histogram" {
			if err := writeHistogram(w, base, labelPart(e.name), e.hist, e.scale); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(e.read())); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet.
// labels is "" or a "{...}" suffix whose label set the le label joins.
func writeHistogram(w io.Writer, base, labels string, h *Histogram, scale float64) error {
	bounds := h.Bounds()
	bins := h.Bins()
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	leLabel := func(le string) string {
		if inner == "" {
			return fmt.Sprintf(`{le=%q}`, le)
		}
		return fmt.Sprintf(`{%s,le=%q}`, inner, le)
	}
	var cum uint64
	for i, b := range bounds {
		cum += bins[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, leLabel(formatFloat(float64(b)/scale)), cum); err != nil {
			return err
		}
	}
	cum += bins[len(bins)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, leLabel("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(float64(h.Sum())/scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler serves the registry at an HTTP endpoint (mount it at
// /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck — client gone mid-scrape
	})
}
