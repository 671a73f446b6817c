package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSource writes one .go file into a temp package dir and lints it.
func lintSource(t *testing.T, src string) []string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	vs, err := lintPackage(dir)
	if err != nil {
		t.Fatalf("lintPackage: %v", err)
	}
	return vs
}

func TestLintFlagsMissingDocs(t *testing.T) {
	vs := lintSource(t, `package x

func Exported() {}

type T struct {
	Field int
}

const C = 1

var V = 2
`)
	wants := []string{
		"exported function Exported has no doc comment",
		"exported type T has no doc comment",
		"exported field T.Field has no doc comment",
		"exported const C has no doc comment",
		"exported var V has no doc comment",
	}
	joined := strings.Join(vs, "\n")
	for _, w := range wants {
		if !strings.Contains(joined, w) {
			t.Errorf("missing violation %q in:\n%s", w, joined)
		}
	}
	if len(vs) != len(wants) {
		t.Errorf("got %d violations, want %d:\n%s", len(vs), len(wants), joined)
	}
}

func TestLintAcceptsDocumentedCode(t *testing.T) {
	vs := lintSource(t, `package x

// Exported does a thing.
func Exported() {}

// The T type holds a field.
type T struct {
	// Field counts things.
	Field int
	Other int // Other is documented by a trailing comment.
}

// Group constants share one comment.
const (
	A = 1
	B = 2
)

// V is a documented var.
var V = 2

// Method acts on T.
func (T) Method() {}

//go:generate true
// Gen has a doc comment after a directive.
func Gen() {}
`)
	if len(vs) != 0 {
		t.Fatalf("clean file produced violations:\n%s", strings.Join(vs, "\n"))
	}
}

func TestLintEnforcesStartsWithName(t *testing.T) {
	vs := lintSource(t, `package x

// Does a thing without naming itself.
func Exported() {}
`)
	if len(vs) != 1 || !strings.Contains(vs[0], `should start with "Exported"`) {
		t.Fatalf("want starts-with-name violation, got:\n%s", strings.Join(vs, "\n"))
	}
}

func TestLintIgnoresUnexported(t *testing.T) {
	vs := lintSource(t, `package x

func internal() {}

type hidden struct{ Field int }

func (hidden) Method() {}
`)
	if len(vs) != 0 {
		t.Fatalf("unexported code produced violations:\n%s", strings.Join(vs, "\n"))
	}
}

// writeTree writes files (slash paths relative to the root) into a temp
// module named m and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestOrphanInternalPackageFails(t *testing.T) {
	root := writeTree(t, map[string]string{
		"cmd/tool/main.go":          "package main\n\nimport _ \"m/internal/used\"\n\nfunc main() {}\n",
		"internal/used/used.go":     "package used\n",
		"internal/orphan/orphan.go": "package orphan\n\nimport _ \"m/internal/orphan/sub\"\n",
		// A test importer does not count, nor does the package itself.
		"internal/used/used_test.go":        "package used\n\nimport _ \"m/internal/orphan\"\n",
		"internal/orphan/sub/sub.go":        "package sub\n",
		"internal/testonly/only_test.go":    "package testonly\n",
		"examples/demo/main.go":             "package main\n\nimport _ \"m/internal/viaexample\"\n\nfunc main() {}\n",
		"internal/viaexample/viaexample.go": "package viaexample\n",
	})
	vs, err := orphans(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0], "orphan package") || !strings.HasSuffix(vs[0], "m/internal/orphan") {
		t.Fatalf("want exactly internal/orphan flagged, got:\n%s", strings.Join(vs, "\n"))
	}
}

// TestAuditedPackagesStayClean is the real gate: the default package
// set must lint clean so CI fails the moment a new exported identifier
// lands without documentation.
func TestAuditedPackagesStayClean(t *testing.T) {
	root := "../.."
	for _, rel := range defaultPackages {
		vs, err := lintPackage(filepath.Join(root, rel))
		if err != nil {
			t.Fatalf("lint %s: %v", rel, err)
		}
		if len(vs) != 0 {
			t.Errorf("package %s has doc violations:\n%s", rel, strings.Join(vs, "\n"))
		}
	}
	vs, err := orphans(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("orphan packages:\n%s", strings.Join(vs, "\n"))
	}
}
