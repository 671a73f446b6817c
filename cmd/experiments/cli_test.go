package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliEnv, when set, makes the test binary run the command itself, so the
// tests below drive the real flag set, exit codes and messages.
const cliEnv = "EXPERIMENTS_CLI_UNDER_TEST"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs the command with args and returns its exit code and its
// combined output.
func cli(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("running %v: %v", args, err)
	return 0, ""
}

// documentedInvocations returns the arguments of every `go run
// ./cmd/experiments` line in the CI workflow and the docs, cut at the
// first shell comment, pipe, redirection or closing code span.
func documentedInvocations(t *testing.T) map[string][]string {
	t.Helper()
	const prefix = "go run ./cmd/experiments"
	out := map[string][]string{}
	for _, file := range []string{".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", "ARCHITECTURE.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			at := strings.Index(line, prefix)
			if at < 0 {
				continue
			}
			rest := line[at+len(prefix):]
			if cut := strings.IndexAny(rest, "`#|>"); cut >= 0 {
				rest = rest[:cut]
			}
			out[file+": "+strings.TrimSpace(line)] = strings.Fields(rest)
		}
	}
	return out
}

// TestCLIDocumentedLinesCheck: every experiments command line the CI
// workflow and the docs show passes -check.
func TestCLIDocumentedLinesCheck(t *testing.T) {
	invs := documentedInvocations(t)
	if len(invs) < 10 {
		t.Fatalf("found %d documented invocations, want at least 10", len(invs))
	}
	for where, args := range invs {
		code, out := cli(t, append(args, "-check")...)
		if code != 0 || !strings.Contains(out, "ok") {
			t.Errorf("%s: -check exited %d: %s", where, code, strings.TrimSpace(out))
		}
	}
}

// TestCLIRejectsBadInput: bad names, specs, list entries and sizes fail
// -check with exit status 2, and an unknown name is named in the message.
func TestCLIRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		names string // a substring the message must carry ("" = any)
	}{
		// Unknown controllers.
		{[]string{"-run", "tournament", "-tournament-controllers", "ec2,no-such-ctrl"}, "no-such-ctrl"},
		{[]string{"-run", "episodes", "-episodes-controllers", "no-such-ctrl"}, "no-such-ctrl"},
		{[]string{"-run", "frontier", "-frontier-controllers", "no-such-ctrl"}, "no-such-ctrl"},
		// Unknown traces.
		{[]string{"-run", "tournament", "-tournament-traces", "big-spike,no-such-trace"}, "no-such-trace"},
		{[]string{"-run", "episodes", "-episodes-traces", "no-such-trace"}, "no-such-trace"},
		{[]string{"-run", "frontier", "-frontier-traces", "no-such-trace"}, "no-such-trace"},
		{[]string{"-run", "hypothesis", "-hypothesis-traces", "no-such-trace"}, "no-such-trace"},
		// Unknown hypothesis id.
		{[]string{"-run", "hypothesis", "-hypothesis-ids", "twin-steady,no-such-id"}, "no-such-id"},
		// Bad admission specs, and a policy list without the baseline.
		{[]string{"-run", "frontier", "-frontier-policies", "always;no-such-policy"}, "no-such-policy"},
		{[]string{"-run", "frontier", "-frontier-policies", "always;codel:target=soon"}, "soon"},
		{[]string{"-run", "frontier", "-frontier-policies", "queue-cap:cap=300"}, "always"},
		// Non-positive or garbled list entries.
		{[]string{"-run", "scale", "-scale-clients", "0"}, ""},
		{[]string{"-run", "scale", "-scale-clients", "10000,-5"}, ""},
		{[]string{"-run", "scale", "-scale-clients", "10000,lots"}, "lots"},
		{[]string{"-run", "scale", "-scale-workers", "0"}, ""},
		{[]string{"-run", "scale", "-scale-workers", "2,many"}, "many"},
		{[]string{"-run", "tournament", "-tournament-tiers", "0"}, ""},
		{[]string{"-run", "tournament", "-tournament-tiers", "2500,-1"}, ""},
		{[]string{"-run", "tournament", "-tournament-tiers", "ten"}, "ten"},
		// Lists that are only separators.
		{[]string{"-run", "scale", "-scale-clients", " , "}, ""},
		{[]string{"-run", "scale", "-scale-modes", " , "}, ""},
		{[]string{"-run", "scale", "-scale-workers", " , "}, ""},
		{[]string{"-run", "tournament", "-tournament-controllers", " , "}, ""},
		{[]string{"-run", "tournament", "-tournament-traces", " , "}, ""},
		{[]string{"-run", "tournament", "-tournament-tiers", " , "}, ""},
		{[]string{"-run", "episodes", "-episodes-controllers", " , "}, ""},
		{[]string{"-run", "episodes", "-episodes-traces", " , "}, ""},
		{[]string{"-run", "frontier", "-frontier-controllers", " , "}, ""},
		{[]string{"-run", "frontier", "-frontier-traces", " , "}, ""},
		{[]string{"-run", "frontier", "-frontier-policies", " ; "}, ""},
		// Negative sizes.
		{[]string{"-run", "scale", "-scale-cells", "-1"}, ""},
		{[]string{"-run", "scale", "-scale-duration", "-1"}, ""},
		{[]string{"-run", "tournament", "-tournament-duration", "-1"}, ""},
		{[]string{"-run", "episodes", "-episodes-users", "-1"}, ""},
		{[]string{"-run", "episodes", "-episodes-duration", "-1"}, ""},
		{[]string{"-run", "frontier", "-frontier-clients", "-1"}, ""},
		{[]string{"-run", "frontier", "-frontier-duration", "-1"}, ""},
		{[]string{"-run", "frontier", "-frontier-think", "-1"}, ""},
		{[]string{"-run", "hypothesis", "-hypothesis-seeds", "-1"}, ""},
		{[]string{"-run", "hypothesis", "-hypothesis-duration", "-1"}, ""},
		{[]string{"-run", "hypothesis", "-hypothesis-users", "-1"}, ""},
	} {
		code, out := cli(t, append([]string{"-check"}, tc.args...)...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2 (output %q)", tc.args, code, strings.TrimSpace(out))
			continue
		}
		if !strings.Contains(out, tc.names) {
			t.Errorf("%q: message %q does not name %q", tc.args, strings.TrimSpace(out), tc.names)
		}
	}
}
