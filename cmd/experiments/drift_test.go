package main

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestTablesMatchCommittedOutput runs -table1 -table2 in-process and
// compares what they print with the same sections of the committed
// experiments_output.txt, blank lines aside. Both tables are counts and
// sets, not timings, so they repeat exactly; a change that moves an
// invariant size or a safe set fails here until experiments_output.txt and
// EXPERIMENTS.md are regenerated with it. The timed sections and the
// ablation rows stay out: they vary from run to run.
func TestTablesMatchCommittedOutput(t *testing.T) {
	committed, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := sections(captureStdout(t, func() {
		table1()
		table2()
	}))
	want := sections(string(committed))
	for _, title := range []string{
		"== Table 1: evaluated designs and invariant sizes ==",
		"== Table 2: safe instruction sets synthesized by VeloCT ==",
	} {
		if len(want[title]) == 0 {
			t.Fatalf("experiments_output.txt has no section %q", title)
		}
		if !slices.Equal(got[title], want[title]) {
			t.Errorf("%s\nprinted:\n%s\ncommitted:\n%s", title,
				strings.Join(got[title], "\n"), strings.Join(want[title], "\n"))
		}
	}
}

// sections splits experiments output into its "== title ==" sections: each
// title maps to the section's non-blank lines.
func sections(out string) map[string][]string {
	m := make(map[string][]string)
	var title string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			title = line
		case title != "" && strings.TrimSpace(line) != "":
			m[title] = append(m[title], line)
		}
	}
	return m
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	t.Cleanup(func() { os.Stdout = stdout })
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	f()
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-read
}
