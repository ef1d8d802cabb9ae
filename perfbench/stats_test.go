package main

import (
	"fmt"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSpecs rejects an invalid or repeated metric name.
func checkSpecs(specs []metricSpec) error {
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if !metricName.MatchString(s.name) {
			return fmt.Errorf("invalid metric name %q", s.name)
		}
		if seen[s.name] {
			return fmt.Errorf("metric %q listed twice", s.name)
		}
		seen[s.name] = true
	}
	return nil
}

func TestPercentileNearestRank(t *testing.T) {
	var l latencies
	for v := 100; v >= 1; v-- {
		l.add(float64(v), 1)
	}
	if n := l.count(); n != 100 {
		t.Fatalf("count = %d, want 100", n)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := l.percentile(c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", c.q*100, got, c.want)
		}
	}
	var empty latencies
	if got := empty.percentile(0.5); got != 0 || empty.count() != 0 {
		t.Errorf("empty: p50 %g count %d", got, empty.count())
	}
}

func TestPercentileWeighted(t *testing.T) {
	// 95 flows finished in a 10 µs cell, 5 in a 1000 µs cell.
	var l latencies
	l.add(1000, 5)
	l.add(10, 95)
	if n := l.count(); n != 100 {
		t.Fatalf("count = %d, want 100", n)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 10}, {0.95, 10}, {0.96, 1000}, {0.99, 1000}} {
		if got := l.percentile(c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", c.q*100, got, c.want)
		}
	}
}

func TestSummarizeTakesMediansOverWindows(t *testing.T) {
	mk := func(frames int64, lat ...float64) window {
		w := window{frames: frames, wall: time.Second}
		for _, v := range lat {
			w.lat.add(v, 1)
		}
		return w
	}
	// The third window is a burst of outside load; medians ignore it.
	ws := []window{mk(100, 1, 2, 3), mk(110, 2, 3, 4), mk(10, 50, 60, 70), mk(120, 3, 4, 5), mk(130, 4, 5, 6)}
	s := summarize(ws)
	if s.rate != 110 {
		t.Errorf("rate = %g, want 110", s.rate)
	}
	if s.p50 != 4 || s.p99 != 5 {
		t.Errorf("p50/p99 = %g/%g, want 4/5", s.p50, s.p99)
	}
	if s.flows != 15 {
		t.Errorf("flows = %d, want 15", s.flows)
	}
	if s.halves != [2]float64{105, 125} {
		t.Errorf("halves = %v, want [105 125]", s.halves)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		if err := checkSpecs(specs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "x/y", "p99%", "é"} {
		if err := checkSpecs([]metricSpec{{bad, "s"}}); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := checkSpecs([]metricSpec{{"a", "s"}, {"a", "s"}}); err == nil {
		t.Error("repeated name accepted")
	}
}
