package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/coverage"
)

// setupLayers are the span names of the layer calls set-up makes; the
// remaining set-up spans ("setup", "instance") are the benchmark's glue.
var setupLayers = map[string]string{
	"dataset.stream":     "dataset.stream_s",
	"dataset.generate":   "dataset.generate_s",
	"influence.coverage": "influence.coverage_s",
	"coverage.compress":  "coverage.compress_s",
	"market.build":       "market.build_s",
	"catalog.build":      "catalog.build_s",
	"server.new":         "",
}

// setupLedger writes the set-up rows: each layer's self time per set-up
// repetition, the coverage sizes, and the share of set-up time the layers
// account for.
func setupLedger(res *result, spans []Span, built []*builtInstance) {
	var setups []Span
	for _, s := range spans {
		if s.Name == "setup" {
			setups = append(setups, s)
		}
	}
	if len(setups) == 0 {
		return
	}
	inSetup := descendants(spans, setups)
	self := selfTimes(inSetup)
	reps := float64(len(setups))
	var layers, total time.Duration
	for _, s := range setups {
		total += s.Dur()
	}
	for name, metric := range setupLayers {
		layers += self[name]
		if metric != "" {
			res.set(metric, self[name].Seconds()/reps)
		}
	}
	res.set("ledger.setup_accounted_frac", ratio(float64(layers), float64(total)))

	var dense, corridor int64
	for _, b := range built {
		dense += b.dense
		corridor += b.corridor
	}
	res.set("coverage.dense_entries", float64(dense))
	res.set("coverage.corridor_entries", float64(corridor))
	res.set("coverage.compression_ratio", ratio(float64(dense), float64(corridor)))
}

// descendants returns roots and every span below them.
func descendants(spans []Span, roots []Span) []Span {
	in := map[int]bool{}
	for _, r := range roots {
		in[r.ID] = true
	}
	// Spans are appended when they end, so children precede parents; sweep
	// until no new span joins.
	for changed := true; changed; {
		changed = false
		for _, s := range spans {
			if !in[s.ID] && in[s.Parent] {
				in[s.ID] = true
				changed = true
			}
		}
	}
	var out []Span
	for _, s := range spans {
		if in[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

// kernelSink keeps the kernel results alive so the timed loops are not
// optimised away.
var kernelSink int

// kernels times the coverage.Counter kernels on a fixed billboard sample of
// u, in nanoseconds per coverage-list entry walked: members are every
// fourth billboard with a non-empty list, candidates the ones two past them.
func kernels(res *result, u *coverage.Universe) {
	const sample = 64
	var members, cands []int
	for b := 0; b < u.NumBillboards(); b++ {
		if u.Degree(b) == 0 {
			continue
		}
		switch {
		case b%4 == 0 && len(members) < sample:
			members = append(members, b)
		case b%4 == 2 && len(cands) < sample:
			cands = append(cands, b)
		}
	}
	pairs := min(len(members), len(cands))
	if pairs == 0 {
		return
	}
	entries := func(bs []int) int64 {
		var n int64
		for _, b := range bs {
			n += int64(len(u.List(b)))
		}
		return n
	}
	c := coverage.NewCounter(u)
	// timeLoop repeats body until it has run for at least 20ms and returns
	// the nanoseconds per entry walked.
	timeLoop := func(perRound int64, body func()) float64 {
		var rounds int64
		var spent time.Duration
		for spent < 20*time.Millisecond {
			t := time.Now()
			body()
			spent += time.Since(t)
			rounds++
		}
		return float64(spent) / float64(rounds*perRound)
	}

	var add time.Duration
	var addRounds int64
	for add < 20*time.Millisecond {
		t := time.Now()
		for _, b := range members {
			c.Add(b)
		}
		add += time.Since(t)
		addRounds++
		for _, b := range members {
			c.Remove(b)
		}
	}
	res.set("coverage.add_ns_per_entry", float64(add)/float64(addRounds*entries(members)))

	for _, b := range members {
		c.Add(b)
	}
	res.set("coverage.gain_ns_per_entry", timeLoop(entries(cands), func() {
		for _, b := range cands {
			kernelSink += c.Gain(b)
		}
	}))
	res.set("coverage.loss_ns_per_entry", timeLoop(entries(members), func() {
		for _, b := range members {
			kernelSink += c.Loss(b)
		}
	}))
	res.set("coverage.swap_ns_per_entry", timeLoop(entries(members[:pairs])+entries(cands[:pairs]), func() {
		for i := 0; i < pairs; i++ {
			kernelSink += c.SwapDelta(members[i], cands[i])
		}
	}))
}

// promCounters parses Prometheus text exposition into series → value,
// keyed by the series as written ("name{label=\"v\"}").
func promCounters(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
