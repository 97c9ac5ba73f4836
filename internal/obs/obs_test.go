package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count", "events", "help text")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	g := r.Gauge("a.gauge", "cycles", "")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("a.hist", "lines", "")
	for _, v := range []uint64{0, 1, 2, 3, 8, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("hist count = %d", h.Count())
	}

	// Re-registration returns the same instance.
	if r.Counter("a.count", "", "") != c {
		t.Fatal("re-registered counter is a different instance")
	}

	s := r.Snapshot()
	if s.Schema != SchemaVersion {
		t.Fatalf("schema = %q", s.Schema)
	}
	if got := s.Get("a.count"); got == nil || got.Value != 4 || got.Unit != "events" {
		t.Fatalf("snapshot counter = %+v", got)
	}
	hs := s.Get("a.hist")
	if hs == nil || hs.Hist.Count != 6 || hs.Hist.Max != 1<<20 {
		t.Fatalf("snapshot hist = %+v", hs)
	}
	// Buckets: 0 → b0; 1 → b1; 2 → b2; 3 → b2; 8 → b4; 2^20 → clamped last.
	if hs.Hist.Buckets[0] != 1 || hs.Hist.Buckets[1] != 1 || hs.Hist.Buckets[2] != 2 || hs.Hist.Buckets[4] != 1 {
		t.Fatalf("buckets = %v", hs.Hist.Buckets)
	}
	if hs.Hist.Buckets[len(hs.Hist.Buckets)-1] != 1 {
		t.Fatalf("overflow bucket: %v", hs.Hist.Buckets)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "", "")
	r.Gauge("x", "", "")
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func(order []string) []byte {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n, "events", "").Add(7)
		}
		r.Histogram("h", "lines", "footprints").Observe(5)
		r.Gauge("g", "ratio", "").Set(0.25)
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := build([]string{"z", "a", "m"})
	b := build([]string{"m", "z", "a"})
	if !bytes.Equal(a, b) {
		t.Fatalf("registration order changed encoding:\n%s\nvs\n%s", a, b)
	}
	// The encoding must be valid JSON with fields in documented order.
	var raw map[string]any
	if err := json.Unmarshal(a, &raw); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if !strings.Contains(string(a), `"schema": "`+SchemaVersion+`"`) {
		t.Fatalf("schema missing:\n%s", a)
	}
}

func TestMetricRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "events", "a counter").Add(9)
	r.Gauge("g", "", "").Set(1.5)
	h := r.Histogram("h", "lines", "")
	h.Observe(3)
	h.Observe(100)
	s := r.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed encoding:\n%s\nvs\n%s", b, b2)
	}
}

func TestSnapshotAdd(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("shared", "", "").Add(2)
	r1.Counter("only1", "", "").Add(1)
	h1 := r1.Histogram("h", "lines", "")
	h1.Observe(4)

	r2 := NewRegistry()
	r2.Counter("shared", "", "").Add(5)
	r2.Counter("only2", "", "").Add(3)
	h2 := r2.Histogram("h", "lines", "")
	h2.Observe(1000)

	s := r1.Snapshot()
	s.Add(r2.Snapshot())
	if got := s.Get("shared").Value; got != 7 {
		t.Fatalf("shared = %d, want 7", got)
	}
	if s.Get("only1").Value != 1 || s.Get("only2").Value != 3 {
		t.Fatal("one-sided metrics lost")
	}
	h := s.Get("h").Hist
	if h.Count != 2 || h.Sum != 1004 || h.Max != 1000 {
		t.Fatalf("merged hist = %+v", h)
	}
	// Merge order must not matter for the encoded bytes.
	s2 := r2.Snapshot()
	s2.Add(r1.Snapshot())
	var a, b bytes.Buffer
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merge order changed encoding:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestHistogramMerge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "lines", "")
	var src Histogram
	for _, v := range []uint64{0, 2, 8} {
		src.Observe(v)
	}
	h.Merge(&src)
	// A source with more buckets than we keep clamps into the last bucket.
	wide := NewWideHistogram()
	wide.Observe(1 << 20)
	wide.Observe(1 << 20)
	h.Merge(wide)
	s := r.Snapshot().Get("h").Hist
	if s.Count != 5 || s.Sum != 10+2<<20 || s.Max != 1<<20 {
		t.Fatalf("merged hist = %+v", s)
	}
	if len(s.Buckets) != DefaultHistBuckets || s.Buckets[len(s.Buckets)-1] != 2 {
		t.Fatalf("clamped buckets = %v", s.Buckets)
	}
	if s.Buckets[0] != 1 || s.Buckets[2] != 1 || s.Buckets[4] != 1 {
		t.Fatalf("merged buckets = %v", s.Buckets)
	}
}

// TestGaugeMergeRules pins the per-metric gauge merge semantics: gauges
// registered with Gauge sum across snapshots, gauges registered with
// MaxGauge keep the largest value, and the rule survives JSON round
// trips (the "merge":"max" field).
func TestGaugeMergeRules(t *testing.T) {
	mk := func(sum, max float64) *Snapshot {
		r := NewRegistry()
		r.Gauge("g.sum", "", "").Set(sum)
		r.MaxGauge("g.max", "", "").Set(max)
		return r.Snapshot()
	}
	a, b := mk(2, 5), mk(3, 4)
	a.Add(b)
	if got := a.Get("g.sum").FValue; got != 5 {
		t.Errorf("sum gauge merged to %v, want 5", got)
	}
	if got := a.Get("g.max").FValue; got != 5 {
		t.Errorf("max gauge merged to %v, want 5", got)
	}
	// Commutativity: merging the other way yields the same values.
	c, d := mk(2, 5), mk(3, 4)
	d.Add(c)
	if d.Get("g.sum").FValue != 5 || d.Get("g.max").FValue != 5 {
		t.Errorf("merge not commutative: %v %v", d.Get("g.sum").FValue, d.Get("g.max").FValue)
	}

	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"merge": "max"`) {
		t.Fatalf("max gauge missing merge field:\n%s", buf.String())
	}
	if strings.Contains(strings.Split(buf.String(), `"g.sum"`)[1], `"merge"`) {
		t.Fatal("sum gauge must not carry a merge field")
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Get("g.max").Merge != MergeMax || back.Get("g.sum").Merge != MergeSum {
		t.Fatalf("merge rule lost in round trip: %+v", back.Metrics)
	}
	// A re-read snapshot still merges by its rule.
	back.Add(mk(1, 9))
	if back.Get("g.max").FValue != 9 || back.Get("g.sum").FValue != 6 {
		t.Fatalf("re-read snapshot merged wrong: max=%v sum=%v",
			back.Get("g.max").FValue, back.Get("g.sum").FValue)
	}
}

// TestWideHistogramRegistry: WideHistogram registers a 2^32-range
// histogram that snapshots and merges like any other.
func TestWideHistogramRegistry(t *testing.T) {
	r := NewRegistry()
	h := r.WideHistogram("lat", "cycles", "")
	h.Observe(1 << 25)
	s := r.Snapshot()
	if got := s.Get("lat").Hist.Max; got != 1<<25 {
		t.Fatalf("wide hist max = %d", got)
	}
	if n := len(s.Get("lat").Hist.Buckets); n != 27 {
		t.Fatalf("bucket count = %d, want 27 (bit length of 2^25 is 26)", n)
	}
	// Merging wide into narrow pads buckets rather than truncating.
	r2 := NewRegistry()
	r2.Histogram("lat", "cycles", "").Observe(3)
	s2 := r2.Snapshot()
	s2.Add(s)
	if got := s2.Get("lat").Hist.Count; got != 2 {
		t.Fatalf("merged count = %d", got)
	}
	if n := len(s2.Get("lat").Hist.Buckets); n != 27 {
		t.Fatalf("merged bucket count = %d, want 27", n)
	}
}
