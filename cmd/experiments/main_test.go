package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when EXPERIMENTS_RUN_MAIN is set, so a
// test can run the test binary as experiments and observe its output and
// exit status.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// experiments runs the command with args in a temporary directory and
// returns its stdout, stderr and exit code.
func experiments(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestFig3PrintsFourPanels(t *testing.T) {
	out, errOut, code := experiments(t, "-fig", "3", "-scale", "0.02", "-q")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errOut)
	}
	for _, id := range []string{"fig3a", "fig3b", "fig3c", "fig3d"} {
		if !strings.Contains(out, "## "+id+" ") {
			t.Fatalf("output lacks %s:\n%s", id, out)
		}
	}
	if strings.Contains(out, "fig3e") {
		t.Fatalf("output has a fifth panel:\n%s", out)
	}
}

func TestTable1PrintsEveryAlgorithm(t *testing.T) {
	out, errOut, code := experiments(t, "-fig", "table1", "-scale", "0.02", "-q")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(out, "## table1 ") {
		t.Fatalf("output lacks table1:\n%s", out)
	}
	for _, alg := range []string{"HDRF", "Greedy", "Hashing", "DBH", "Mint", "CLUGP"} {
		if !strings.Contains(out, "\n"+alg+" ") {
			t.Fatalf("table1 has no %s row:\n%s", alg, out)
		}
	}
}

// TestSuiteAndFigureModesExclusive: -json runs the suite, so with -fig it
// exits 2 before running anything.
func TestSuiteAndFigureModesExclusive(t *testing.T) {
	out, errOut, code := experiments(t, "-json", "-fig", "3")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, errOut)
	}
	if out != "" || !strings.Contains(errOut, "cannot be combined with -fig") {
		t.Fatalf("stdout %q, stderr %q", out, errOut)
	}
}

// TestSuiteOnlyFlagWarnsInFigureMode: a suite-only flag given to a figure
// run is named in a warning, and the figure still runs.
func TestSuiteOnlyFlagWarnsInFigureMode(t *testing.T) {
	out, errOut, code := experiments(t, "-fig", "9", "-scale", "0.02", "-q", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "warning: -workers only applies to suite mode") {
		t.Fatalf("no warning naming -workers; stderr:\n%s", errOut)
	}
	if !strings.Contains(out, "## fig9 ") {
		t.Fatalf("figure did not run:\n%s", out)
	}
}
