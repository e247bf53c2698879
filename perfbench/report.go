package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// report collects one run's metrics and correctness checks.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	rows      map[string]row
}

// row is one printed metric: value, unit and the samples behind it.
type row struct {
	Unit string
	V    float64
	N    int
}

func newReport() *report { return &report{rows: map[string]row{}} }

func (r *report) add(name, unit string, s sample) {
	r.rows[name] = row{Unit: unit, V: s.V, N: s.N}
}

// check counts one correctness check; a false one is a failure.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// requests counts attempted and failed requests of a pass.
func (r *report) requests(attempted, failed int) {
	r.attempted += int64(attempted)
	r.failed += int64(failed)
}

// benchmarkSpec is the part of BENCHMARK.json the run reads: which
// metrics each mode emits, and their units.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// write prints every row as "name value unit (n=samples)", then the
// result object as the last line. Only the metrics the spec names for
// this mode go into the object; a named metric the run did not measure,
// or one measured in another unit, is a benchmark bug and an error.
func (r *report) write(w io.Writer, spec benchmarkSpec, traced bool) error {
	names := make([]string, 0, len(r.rows))
	for n := range r.rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row := r.rows[n]
		fmt.Fprintf(w, "%-44s %14.6g %-8s (n=%d)\n", n, row.V, row.Unit, row.N)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := resultJSON{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]metricJSON{}}
	for _, m := range want {
		row, ok := r.rows[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if row.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, row.Unit, m.Unit)
		}
		if math.IsNaN(row.V) || math.IsInf(row.V, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, row.V)
		}
		out.Metrics[m.Name] = metricJSON{Value: row.V, Unit: row.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
