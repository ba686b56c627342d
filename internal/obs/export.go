package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a snapshot of the registry in the Prometheus text
// exposition format. Metric names are prefixed with the registry name and
// sanitised to [a-zA-Z0-9_]. Series registered through labeled views
// (Registry.WithLabels) keep their label block: `name{device="dev0"}`
// renders as the same series under the sanitised base name, and one TYPE
// line covers every label permutation of a base name. Histograms are
// rendered as cumulative _bucket{le="..."} series plus _sum and _count,
// matching the native Prometheus histogram type; a labeled histogram's
// block merges ahead of the le label.
func WritePrometheus(w io.Writer, r *Registry) error {
	s := r.Snapshot()
	prefix := sanitize(s.Name)
	if prefix != "" {
		prefix += "_"
	}
	typed := make(map[string]bool)
	typeLine := func(base, kind string) error {
		if typed[base] {
			return nil
		}
		typed[base] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}

	for _, name := range sortedKeys(s.Counters) {
		base, labels := splitSeries(name)
		full := prefix + sanitize(base)
		if err := typeLine(full, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", full, labelBlock(labels), s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, labels := splitSeries(name)
		full := prefix + sanitize(base)
		if err := typeLine(full, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", full, labelBlock(labels), formatFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		base, labels := splitSeries(name)
		full := prefix + sanitize(base)
		h := s.Histograms[name]
		if err := typeLine(full, "histogram"); err != nil {
			return err
		}
		le := func(bound string) string {
			if labels == "" {
				return `{le="` + bound + `"}`
			}
			return "{" + labels + `,le="` + bound + `"}`
		}
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", full, le(escapeLabel(formatFloat(bound))), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", full, le("+Inf"), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			full, labelBlock(labels), formatFloat(h.Sum), full, labelBlock(labels), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// splitSeries separates a snapshot key into its base instrument name and the
// label block a WithLabels view decorated it with ("" when unlabeled).
func splitSeries(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// labelBlock re-wraps a split label set for emission ("" stays empty).
func labelBlock(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Order by (base, labels) rather than raw key so every label
	// permutation of one base name stays contiguous in the exposition —
	// '{' sorts above letters, which would otherwise let an unrelated base
	// slot between a series and its labeled variants.
	sort.Slice(keys, func(i, j int) bool {
		bi, li := splitSeries(keys[i])
		bj, lj := splitSeries(keys[j])
		if bi != bj {
			return bi < bj
		}
		return li < lj
	})
	return keys
}

func sanitize(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline — and only those, unlike Go's
// %q which also escapes non-ASCII runes the format permits verbatim.
func escapeLabel(v string) string {
	needs := false
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' || c == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return v
	}
	out := make([]byte, 0, len(v)+4)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
