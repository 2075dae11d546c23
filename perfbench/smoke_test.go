package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runSmoke runs one workload on tiny corpora and returns its JSON result.
func runSmoke(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"--seed", "3", "--seconds", "0.5", "--wiki-n", "400", "--songs-n", "400",
		"--work-dir", t.TempDir()}, args...)
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", code, err, out.String(), errb.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("exit %d, result %+v\nstdout:\n%s\nstderr:\n%s", code, res, out.String(), errb.String())
	}
	return res
}

// TestSmoke runs every workload untraced and traced on a 400-input
// corpus and requires a correct result carrying the whole catalogue.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := runSmoke(t, "--workload", w, "--trace", "0")
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s: %+v (present %t), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			res = runSmoke(t, "--workload", w, "--trace", "1")
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("traced run lacks %s", d.name)
				}
			}
			if res.Metrics["bench.trace_overhead"].Value <= 0 || res.Metrics["bench.spans"].Value <= 0 {
				t.Errorf("traced run recorded no spans or overhead: %+v", res.Metrics)
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "wiki-verdict", "--trace", "2"},
		{"--workload", "wiki-verdict", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure without output", args, code, out.String())
		}
	}
}
