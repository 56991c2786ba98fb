package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenSubset are the sections TestGoldenSubset reproduces: together
// they cover the cnv labels, the baseline placer, RunCNV under both
// constant and minimal CFs with a full stitch, and the maze router, in
// a few seconds. The full `-exp all` diff runs in scripts/ci.sh.
var goldenSubset = []string{"table1", "fig4", "fig5", "maze"}

// headerLine matches the section headers main prints before each
// experiment.
var headerLine = regexp.MustCompile(`(?m)^================ (\S+) ================\n`)

// goldenSections splits the committed `-exp all` output into section
// bodies: the text after each header up to the blank line main prints
// before the next one.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	locs := headerLine.FindAllStringSubmatchIndex(text, -1)
	out := make(map[string]string, len(locs))
	for k, loc := range locs {
		end := len(text)
		if k+1 < len(locs) {
			end = locs[k+1][0] - 1 // drop the blank line before the next header
		}
		out[text[loc[2]:loc[3]]] = text[loc[1]:end]
	}
	return out
}

// capture runs fn with stdout and the log output (stderr in the golden
// run) redirected into one buffer, as `> out 2>&1` records them.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "section")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	log.SetOutput(f)
	defer func() {
		os.Stdout = stdout
		log.SetOutput(os.Stderr)
	}()
	fn()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestGoldenSubset: the default-flag output of the goldenSubset
// sections is byte-identical to the committed experiments_output.txt.
func TestGoldenSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cnv flow in -short mode")
	}
	golden := goldenSections(t)
	c, _, _, err := parseFlags(flag.NewFlagSet("experiments", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	defer func() {
		log.SetFlags(log.LstdFlags)
		log.SetPrefix("")
	}()
	byName := map[string]experiment{}
	for _, e := range experiments {
		byName[e.name] = e
	}
	for _, name := range goldenSubset {
		want, ok := golden[name]
		if !ok {
			t.Fatalf("section %s missing from experiments_output.txt", name)
		}
		got := capture(t, func() { c.runExperiment(byName[name]) })
		if got != want {
			t.Errorf("section %s differs from experiments_output.txt:\n%s", name, lineDiff(want, got))
		}
	}
}

// lineDiff reports the first differing line of two section bodies.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(identical lines; trailing newline differs)"
}
