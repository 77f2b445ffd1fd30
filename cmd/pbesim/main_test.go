package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocsArtifacts regenerates the committed docs/ examples and
// byte-compares them: a drifting example means the docs lie about what
// the code produces.
func TestDocsArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-scheme", "pbe,cubic,pbertc", "-report", out("report_steady.svg"), "-csv", out("report_steady.csv")},
		{"-family", "steady", "-scheme", "pbe", "-trace", out("trace_steady_pbe.json")},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("pbesim %v: %v\n%s", args, err, stderr.String())
		}
	}
	for _, name := range []string{"report_steady.svg", "report_steady.csv", "trace_steady_pbe.json"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "docs", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out(name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: regenerated bytes differ from docs/%s", name, name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings the error must contain
	}{
		{"unknown family", []string{"-family", "nosuch"}, []string{`"nosuch"`, "steady", "metro"}},
		{"unknown scheme", []string{"-scheme", "nosuch"}, []string{`"nosuch"`, "pbe", "cubic"}},
		{"trace with two schemes", []string{"-scheme", "pbe,cubic", "-trace", "t.json"}, []string{"one scheme"}},
		{"series with two schemes", []string{"-scheme", "pbe,cubic", "-series", "s.csv"}, []string{"one scheme"}},
		{"csv without report", []string{"-csv", "r.csv"}, []string{"-csv requires -report"}},
		{"series-filter without series", []string{"-series-filter", "cc.rate"}, []string{"requires -series"}},
		{"unknown series", []string{"-series", "s.csv", "-series-filter", "cc.rate,nosuch"}, []string{`"nosuch"`, "cc.rate"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("pbesim %v: no error", tc.args)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("pbesim %v: error %q does not mention %s", tc.args, err, w)
				}
			}
		})
	}
}
