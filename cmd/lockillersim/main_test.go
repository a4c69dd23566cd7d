package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceNBelowOneIsRejected pins -tracen's lower bound: a retention
// below 1 exits 1 with one "lockillersim:" line on stderr and nothing on
// stdout, instead of running with a silently substituted retention.
func TestTraceNBelowOneIsRejected(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build lockillersim with")
	}
	bin := filepath.Join(t.TempDir(), "lockillersim")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, n := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-trace", "tx", "-tracen", n)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-tracen %s: %v, want exit status 1", n, err)
		}
		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "lockillersim: ") || stdout.Len() != 0 {
			t.Fatalf("-tracen %s: stdout %q, stderr %q; want one lockillersim: line on stderr only",
				n, stdout.String(), stderr.String())
		}
	}
}
