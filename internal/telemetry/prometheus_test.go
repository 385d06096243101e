package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parsePrometheus validates one exposition document line by line — the
// sanity the scrape smoke in CI and the conformance tests rely on — and
// returns sample values keyed by "name{label=value,...}".
func parsePrometheus(t testing.TB, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || fields[2] == "" {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("line %d: unknown TYPE %q", ln+1, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		} else {
			t.Fatalf("line %d: no value on %q", ln+1, line)
		}
		labels := ""
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, `} `)
			if end < 0 {
				t.Fatalf("line %d: unterminated label set %q", ln+1, line)
			}
			labels = rest[1:end]
			for _, pair := range splitLabelPairs(labels) {
				eq := strings.Index(pair, `="`)
				if eq <= 0 || !strings.HasSuffix(pair, `"`) {
					t.Fatalf("line %d: malformed label pair %q", ln+1, pair)
				}
				val := pair[eq+2 : len(pair)-1]
				if strings.ContainsAny(val, "\n") || hasUnescapedQuote(val) {
					t.Fatalf("line %d: unescaped label value %q", ln+1, val)
				}
			}
			rest = rest[end+1:]
		}
		valStr := strings.TrimSpace(rest)
		var v float64
		switch valStr {
		case "+Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		default:
			var err error
			v, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && typed[b] == "histogram" {
				base = b
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no TYPE comment", ln+1, name)
		}
		key := name
		if labels != "" {
			key = name + "{" + labels + "}"
		}
		samples[key] = v
	}
	return samples
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quoted values.
func splitLabelPairs(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
		case r == '\\':
			escaped = true
		case r == '"':
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteRune(r)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func hasUnescapedQuote(s string) bool {
	escaped := false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
		case r == '\\':
			escaped = true
		case r == '"':
			return true
		}
	}
	return false
}

func scrape(t testing.TB, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestWritePrometheusCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("rknn_queries_total", "Queries served.", "op").With("rknn").Add(3)
	r.GaugeFunc("rknn_points", "Live points.", func() float64 { return 1500 })
	text := scrape(t, r)
	samples := parsePrometheus(t, text)
	if got := samples[`rknn_queries_total{op="rknn"}`]; got != 3 {
		t.Fatalf("counter sample = %v, want 3\n%s", got, text)
	}
	if got := samples["rknn_points"]; got != 1500 {
		t.Fatalf("gauge sample = %v, want 1500\n%s", got, text)
	}
	for _, want := range []string{
		"# HELP rknn_queries_total Queries served.",
		"# TYPE rknn_queries_total counter",
		"# TYPE rknn_points gauge",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat_seconds", "Latency.", []float64{0.1, 1}, "route")
	h.With("/x").Observe(0.05)
	h.With("/x").Observe(0.5)
	h.With("/x").Observe(5)
	text := scrape(t, r)
	samples := parsePrometheus(t, text)
	checks := map[string]float64{
		`lat_seconds_bucket{route="/x",le="0.1"}`:  1,
		`lat_seconds_bucket{route="/x",le="1"}`:    2,
		`lat_seconds_bucket{route="/x",le="+Inf"}`: 3,
		`lat_seconds_count{route="/x"}`:            3,
	}
	for key, want := range checks {
		if got := samples[key]; got != want {
			t.Fatalf("%s = %v, want %v\n%s", key, got, want, text)
		}
	}
	sum := samples[`lat_seconds_sum{route="/x"}`]
	if sum < 5.54 || sum > 5.56 {
		t.Fatalf("sum = %v, want 5.55", sum)
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m_total", "help with \\ and \n newline", "lab").With("quo\"te\\back\nnl").Inc()
	text := scrape(t, r)
	parsePrometheus(t, text)
	if !strings.Contains(text, `lab="quo\"te\\back\nnl"`) {
		t.Fatalf("label value not escaped:\n%s", text)
	}
	if !strings.Contains(text, `# HELP m_total help with \\ and \n newline`) {
		t.Fatalf("help not escaped:\n%s", text)
	}
}

func TestWritePrometheusEmptyLabelOmitted(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m_total", "", "shard").With("").Inc()
	text := scrape(t, r)
	parsePrometheus(t, text)
	if !strings.Contains(text, "m_total 1\n") {
		t.Fatalf("empty label value should render as unlabeled sample:\n%s", text)
	}
}

// FuzzPrometheusText drives adversarial label values, help strings, and
// observations through the encoder and asserts the output always parses —
// the encoder can never emit an exposition a scraper would reject.
func FuzzPrometheusText(f *testing.F) {
	f.Add("route", `a"b\c`+"\nd", 0.5, int64(3))
	f.Add("op", "", -1.5, int64(0))
	f.Add("x", "plain", 1e300, int64(7))
	f.Fuzz(func(t *testing.T, labelName, labelValue string, obs float64, add int64) {
		if !validLabelName(labelName) {
			t.Skip()
		}
		if add < 0 {
			add = -add
		}
		if add > 1<<40 {
			add = 1 << 40
		}
		r := NewRegistry()
		r.CounterVec("fuzz_total", labelValue, labelName).With(labelValue).Add(add)
		r.GaugeFunc("fuzz_gauge", "g", func() float64 { return obs }, Label{Name: labelName, Value: labelValue})
		r.HistogramVec("fuzz_seconds", "h", DefaultLatencyBuckets, labelName).With(labelValue).Observe(obs)
		text := scrape(t, r)
		samples := parsePrometheus(t, text)
		key := "fuzz_total"
		if labelValue != "" {
			key = fmt.Sprintf(`fuzz_total{%s="%s"}`, labelName, escapeLabelValue(labelValue))
		}
		if got := samples[key]; got != float64(add) {
			t.Fatalf("counter sample %q = %v, want %d\n%s", key, got, add, text)
		}
		// The OpenMetrics sibling must stay parseable over the same
		// adversarial inputs, including an exemplar with a hostile value.
		r.HistogramVec("fuzz_seconds", "h", DefaultLatencyBuckets, labelName).With(labelValue).SetExemplar(obs, labelValue+"id", time.Unix(1, 0))
		omSamples, _ := parseOpenMetrics(t, scrapeOpenMetrics(t, r))
		if got := omSamples[key]; got != float64(add) {
			t.Fatalf("openmetrics counter sample %q = %v, want %d", key, got, add)
		}
	})
}

// validLabelName mirrors the Prometheus label-name charset
// [a-zA-Z_][a-zA-Z0-9_]*; the encoder trusts callers on names (they are
// compile-time constants everywhere in this repo), so the fuzzer only
// feeds valid ones.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func TestSlowEntryFieldsRoundTrip(t *testing.T) {
	l := NewSlowLog(0, 4)
	now := time.Now()
	l.Observe(SlowEntry{Time: now, Route: "/v1/rknn", Detail: "POST /v1/rknn", Duration: 42 * time.Millisecond, Err: "boom"})
	got := l.Snapshot()[0]
	if got.Route != "/v1/rknn" || got.Detail != "POST /v1/rknn" || got.Err != "boom" || got.Duration != 42*time.Millisecond || !got.Time.Equal(now) {
		t.Fatalf("entry round-trip mismatch: %+v", got)
	}
}

// --- OpenMetrics 1.0 side of the encoder ---

func scrapeOpenMetrics(t testing.TB, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	return b.String()
}

type omExemplar struct {
	TraceID string
	Value   float64
	TS      float64
}

// cutLabelBlock splits a leading {label="value",...} block off s with
// quote/escape awareness (label values may contain '}' or ' # '), returning
// the block's inside and the remainder after the closing brace.
func cutLabelBlock(t testing.TB, s string) (labels, rest string) {
	t.Helper()
	if !strings.HasPrefix(s, "{") {
		return "", s
	}
	inQuote, escaped := false, false
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			return s[1:i], s[i+1:]
		}
	}
	t.Fatalf("unterminated label block in %q", s)
	return "", ""
}

// parseOpenMetrics validates a WriteOpenMetrics document line by line: the
// "# EOF" terminator, counter metadata names without the _total suffix the
// sample lines keep, and exemplars only on histogram bucket lines. It
// returns sample values and exemplars keyed by "name{labels}".
func parseOpenMetrics(t testing.TB, text string) (map[string]float64, map[string]omExemplar) {
	t.Helper()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition must end with \"# EOF\\n\":\n%s", text)
	}
	body := strings.TrimSuffix(text, "# EOF\n")
	samples := make(map[string]float64)
	exemplars := make(map[string]omExemplar)
	typed := make(map[string]string)
	parseValue := func(ln int, s string) float64 {
		switch s {
		case "+Inf":
			return math.Inf(1)
		case "-Inf":
			return math.Inf(-1)
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, s, err)
		}
		return v
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || fields[2] == "" {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if fields[1] == "TYPE" {
				if fields[3] == "counter" && strings.HasSuffix(fields[2], "_total") {
					t.Fatalf("line %d: OpenMetrics counter metadata must drop _total: %q", ln+1, line)
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		} else {
			t.Fatalf("line %d: no value on %q", ln+1, line)
		}
		labels, rest := cutLabelBlock(t, line[len(name):])
		rest = strings.TrimPrefix(rest, " ")
		valStr, exStr, hasEx := strings.Cut(rest, " # ")
		v := parseValue(ln, strings.TrimSpace(valStr))

		// Resolve the metadata name the sample belongs to.
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && typed[b] == "histogram" {
				base = b
			}
		}
		if b, ok := strings.CutSuffix(name, "_total"); ok && typed[b] == "counter" {
			base = b
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no TYPE metadata", ln+1, name)
		}
		if typed[base] == "counter" && !strings.HasSuffix(name, "_total") {
			t.Fatalf("line %d: counter sample %q must keep the _total suffix", ln+1, name)
		}
		key := name
		if labels != "" {
			key = name + "{" + labels + "}"
		}
		samples[key] = v

		if hasEx {
			if !strings.HasSuffix(name, "_bucket") || typed[base] != "histogram" {
				t.Fatalf("line %d: exemplar on non-bucket sample %q", ln+1, line)
			}
			exLabels, exRest := cutLabelBlock(t, exStr)
			fields := strings.Fields(exRest)
			if len(fields) != 2 {
				t.Fatalf("line %d: exemplar wants \"value timestamp\", got %q", ln+1, exRest)
			}
			const pre = `trace_id="`
			if !strings.HasPrefix(exLabels, pre) || !strings.HasSuffix(exLabels, `"`) {
				t.Fatalf("line %d: exemplar label set %q, want trace_id only", ln+1, exLabels)
			}
			exemplars[key] = omExemplar{
				TraceID: exLabels[len(pre) : len(exLabels)-1],
				Value:   parseValue(ln, fields[0]),
				TS:      parseValue(ln, fields[1]),
			}
		}
	}
	return samples, exemplars
}

func TestWriteOpenMetricsCounterNamingAndEOF(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("rknn_queries_total", "Queries served.", "op").With("rknn").Add(3)
	r.GaugeFunc("rknn_points", "Live points.", func() float64 { return 42 })
	text := scrapeOpenMetrics(t, r)
	samples, _ := parseOpenMetrics(t, text)
	if got := samples[`rknn_queries_total{op="rknn"}`]; got != 3 {
		t.Fatalf("counter sample = %v, want 3\n%s", got, text)
	}
	if !strings.Contains(text, "# TYPE rknn_queries counter\n") {
		t.Fatalf("counter metadata must drop _total:\n%s", text)
	}
	if strings.Contains(text, "# TYPE rknn_queries_total") {
		t.Fatalf("counter metadata kept _total:\n%s", text)
	}
	if got := samples["rknn_points"]; got != 42 {
		t.Fatalf("gauge sample = %v, want 42\n%s", got, text)
	}
}

func TestWriteOpenMetricsMatchesPrometheusValues(t *testing.T) {
	// The two expositions are siblings over one Gather: every sample key
	// must carry the same value in both, so a scraper migrating formats
	// sees no discontinuity.
	r := NewRegistry()
	r.CounterVec("rknn_queries_total", "q", "op").With("rknn").Add(7)
	r.GaugeFunc("rknn_points", "p", func() float64 { return 1500 })
	h := r.HistogramVec("lat_seconds", "l", []float64{0.1, 1}, "route").With("/x")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	prom := parsePrometheus(t, scrape(t, r))
	om, _ := parseOpenMetrics(t, scrapeOpenMetrics(t, r))
	if len(prom) != len(om) {
		t.Fatalf("sample sets differ: prometheus %d, openmetrics %d", len(prom), len(om))
	}
	for key, want := range prom {
		got, ok := om[key]
		if !ok || got != want {
			t.Fatalf("sample %q: openmetrics %v (present %v), prometheus %v", key, got, ok, want)
		}
	}
}

func TestWriteOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat_seconds", "Latency.", []float64{0.1, 1}, "route").With("/x")
	h.Observe(0.05)
	h.SetExemplar(0.05, "00f067aa0ba902b7", winBase)
	h.Observe(5)
	text := scrapeOpenMetrics(t, r)
	samples, exemplars := parseOpenMetrics(t, text)
	key := `lat_seconds_bucket{route="/x",le="0.1"}`
	if samples[key] != 1 {
		t.Fatalf("bucket sample = %v, want 1\n%s", samples[key], text)
	}
	ex, ok := exemplars[key]
	if !ok {
		t.Fatalf("bucket %q has no exemplar:\n%s", key, text)
	}
	if ex.TraceID != "00f067aa0ba902b7" || ex.Value != 0.05 {
		t.Fatalf("exemplar = %+v", ex)
	}
	if want := float64(winBase.UnixNano()) / 1e9; math.Abs(ex.TS-want) > 0.002 {
		t.Fatalf("exemplar timestamp = %v, want ~%v", ex.TS, want)
	}
	// Buckets that never retained a trace carry no exemplar.
	if _, ok := exemplars[`lat_seconds_bucket{route="/x",le="+Inf"}`]; ok {
		t.Fatalf("untraced bucket grew an exemplar:\n%s", text)
	}
	// The 0.0.4 exposition stays byte-compatible: no exemplar syntax, and
	// it still parses under the strict 0.0.4 parser.
	text004 := scrape(t, r)
	if strings.Contains(text004, "# {") {
		t.Fatalf("0.0.4 exposition leaked exemplar syntax:\n%s", text004)
	}
	parsePrometheus(t, text004)
}
