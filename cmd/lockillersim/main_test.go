package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSim builds the command into a temporary directory, skipping the
// test where no go command is available.
func buildSim(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build lockillersim with")
	}
	bin := filepath.Join(t.TempDir(), "lockillersim")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// assertRejected runs bin with args and asserts it exits 1 with one
// "lockillersim:" line on stderr and nothing on stdout.
func assertRejected(t *testing.T, bin string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v: %v, want exit status 1", args, err)
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "lockillersim: ") || stdout.Len() != 0 {
		t.Fatalf("%v: stdout %q, stderr %q; want one lockillersim: line on stderr only",
			args, stdout.String(), stderr.String())
	}
}

// TestTraceNBelowOneIsRejected pins -tracen's lower bound: a retention
// below 1 exits 1 with one "lockillersim:" line on stderr and nothing on
// stdout, instead of running with a silently substituted retention.
func TestTraceNBelowOneIsRejected(t *testing.T) {
	bin := buildSim(t)
	for _, n := range []string{"0", "-3"} {
		assertRejected(t, bin, "-trace", "tx", "-tracen", n)
	}
}

// TestResultsJSONPathIsRejected pins that -results refuses a .json path
// (the removed single-file snapshot cache) the way lockillerbench does,
// instead of creating a cache directory by that name.
func TestResultsJSONPathIsRejected(t *testing.T) {
	bin := buildSim(t)
	path := filepath.Join(t.TempDir(), "x.json")
	assertRejected(t, bin, "-results", path)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("-results %s created the path: %v", path, err)
	}
}
