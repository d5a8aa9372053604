package main

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fastintersect/internal/obs"
)

// scrape reads every sample of an Engine.Metrics() registry through its
// Prometheus text rendering — the same surface /metrics serves — keyed by
// the full series name (`fsi_x_total`, `fsi_y_seconds_sum{stage="exec"}`).
// Going through the text keeps the benchmark off the engine's Go types, so
// the engine can rename its internals without breaking the benchmark.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return nil, fmt.Errorf("render metrics: %w", err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// seriesDelta reads counters as the change between two scrapes and records
// every series it was asked for that the engine does not export, so a
// renamed or removed series is reported instead of read as zero.
type seriesDelta struct {
	before, after map[string]float64
	missing       map[string]bool
}

func newSeriesDelta(before, after map[string]float64) *seriesDelta {
	return &seriesDelta{before: before, after: after, missing: map[string]bool{}}
}

// delta returns after−before for name; ok is false when the series is
// missing from either scrape.
func (d *seriesDelta) delta(name string) (float64, bool) {
	a, okA := d.after[name]
	b, okB := d.before[name]
	if !okA || !okB {
		d.missing[name] = true
		return 0, false
	}
	return a - b, true
}

// histMean returns the mean of the observations a histogram series took
// between the scrapes, in the series' unit (seconds for fsi_*_seconds).
func (d *seriesDelta) histMean(family, labels string) (float64, bool) {
	sum, ok1 := d.delta(family + "_sum" + labels)
	n, ok2 := d.delta(family + "_count" + labels)
	if !ok1 || !ok2 {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	return sum / n, true
}

// ratio returns Δnum / (Δnum + Δother), 0 when both are 0.
func (d *seriesDelta) ratio(num, other string) (float64, bool) {
	a, ok1 := d.delta(num)
	b, ok2 := d.delta(other)
	if !ok1 || !ok2 {
		return 0, false
	}
	if a+b == 0 {
		return 0, true
	}
	return a / (a + b), true
}

// missingNames lists the absent series, sorted.
func (d *seriesDelta) missingNames() []string {
	out := make([]string, 0, len(d.missing))
	for n := range d.missing {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
