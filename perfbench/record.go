package main

import (
	"bytes"
	"fmt"
	"go/format"
	"io"
)

// expectedFor returns the recorded offline outcomes of a workload.
func expectedFor(name string) map[string]outcome { return expected[name] }

// recordExpected solves every variant of every offline workload, and the
// serve workloads' fleet batch, and prints expected.go. Run it only when the
// solvers' answers are meant to change:
//
//	go run . --record > expected.go
func recordExpected(out io.Writer) error {
	var w bytes.Buffer
	if err := writeExpected(&w); err != nil {
		return err
	}
	src, err := format.Source(w.Bytes())
	if err != nil {
		return err
	}
	_, err = out.Write(src)
	return err
}

func writeExpected(w io.Writer) error {
	fmt.Fprintln(w, "// Code generated by perfbench --record; DO NOT EDIT.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "package main")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "// expected holds, per batch, the (regret, evals) every solve of it must")
	fmt.Fprintln(w, "// reproduce, keyed by solveItem.key.")
	fmt.Fprintln(w, "var expected = map[string]map[string]outcome{")
	for _, wl := range workloads {
		if wl.offline == nil {
			continue
		}
		var items []solveItem
		for v := 0; v < variants; v++ {
			s, err := wl.offline(newTracer(false), 0, v)
			if err != nil {
				return err
			}
			items = append(items, s.items...)
		}
		if err := recordItems(w, wl.name, items); err != nil {
			return err
		}
	}
	built, _, err := buildFleet(newTracer(false), 0)
	if err != nil {
		return err
	}
	// Both serve workloads solve the same fleet batch.
	if err := recordItems(w, "serve-fleet", fleetBatch(built)); err != nil {
		return err
	}
	fmt.Fprintln(w, "}")
	return nil
}

// recordItems prints one workload's table entry.
func recordItems(w io.Writer, name string, items []solveItem) error {
	fmt.Fprintf(w, "\t%q: {\n", name)
	seen := map[string]bool{}
	for _, it := range items {
		if seen[it.key()] {
			continue
		}
		seen[it.key()] = true
		res, err := solve(it, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\t\t%q: {Regret: %v, Evals: %d},\n", it.key(), res.TotalRegret, res.Evals)
	}
	fmt.Fprintln(w, "\t},")
	return nil
}
