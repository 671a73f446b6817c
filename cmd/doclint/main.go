// Command doclint enforces the repo's godoc contract: every exported
// identifier in the audited packages must carry a doc comment, and a
// doc comment on a single-name declaration must start with the name it
// documents (the standard godoc convention, so `go doc` output reads as
// prose). It also fails on an orphan: an internal/ package that no
// non-test .go file outside the package imports, so code nothing reaches
// is deleted rather than documented, and on an unreached facade symbol:
// an exported name of the root package that nothing outside it uses. It
// is the documentation half of the CI docs gate; the other half,
// cmd/doccheck, keeps the prose documents runnable.
//
// Usage:
//
//	go run ./cmd/doclint [-root DIR] [packages...]
//
// With no package arguments it audits the default set: the conscale
// facade package plus internal/{des,workload,cluster,sct,scaling}. The
// orphan check always covers every package under DIR/internal, and the
// reach check always covers the root package DIR.
// Violations are printed one per line as path:line: message and the
// process exits 1; a clean audit exits 0.
//
// The rules, precisely:
//
//   - Every exported top-level const, var, type, and func needs a doc
//     comment. A comment on a grouped declaration (`const (...)` or
//     `var (...)`) covers every name in the group.
//   - Exported methods and exported struct fields of exported types
//     need doc comments too.
//   - A doc comment on a declaration that introduces exactly one name
//     must begin with that name (optionally preceded by "A", "An", or
//     "The", matching the godoc convention).
//   - Deprecated markers and directive comments (//go:...) do not count
//     as documentation.
//   - _test.go files are exempt, and do not count as importers.
//   - Every package under internal/ is imported by some non-test .go
//     file outside its own directory (cmd/, examples/ and bench/ count).
//   - Every exported top-level name the root package's non-test files
//     declare is reached: some .go file outside the package (tests and
//     the root's external _test package included) names it as pkg.Name,
//     or a reached declaration of the root package names it.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultPackages is the audited set: the public facade and the
// simulator packages whose exported APIs the documentation references.
var defaultPackages = []string{
	".",
	"internal/des",
	"internal/workload",
	"internal/admission",
	"internal/cluster",
	"internal/sct",
	"internal/scaling",
	"internal/forensics",
	"internal/twin",
	"internal/qnet",
}

func main() {
	root := flag.String("root", ".", "repository root the package paths are relative to")
	flag.Parse()

	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = defaultPackages
	}

	var violations []string
	for _, rel := range pkgs {
		vs, err := lintPackage(filepath.Join(*root, rel))
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		violations = append(violations, vs...)
	}
	vs, err := orphans(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	violations = append(violations, vs...)
	vs, err = unreachedFacade(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	violations = append(violations, vs...)
	sort.Strings(violations)
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("doclint: %d package(s) clean\n", len(pkgs))
}

// lintPackage parses every non-test .go file in dir and returns the
// formatted violations found.
func lintPackage(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", dir, err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			out = append(out, lintFile(fset, file)...)
		}
	}
	return out, nil
}

// orphans reports every package under root/internal that no non-test
// .go file outside the package's own directory imports.
func orphans(root string) ([]string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	internal := map[string]bool{} // package import path -> has non-test files
	imported := map[string]bool{} // import path -> imported from outside itself
	err = walkGo(root, func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		self := mod + "/" + filepath.ToSlash(rel)
		if strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			internal[self] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p != self {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for pkg := range internal {
		if !imported[pkg] {
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, mod+"/")))
			out = append(out, fmt.Sprintf("%s: orphan package: no non-test .go file outside it imports %s", dir, pkg))
		}
	}
	return out, nil
}

// unreachedFacade reports every exported top-level const, var, type and
// func of the root package that no .go file outside the package names as
// pkg.Name, unless a reached root declaration names it itself (an alias in
// a kept function's signature, say).
func unreachedFacade(root string) ([]string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, root, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", root, err)
	}
	if len(pkgs) != 1 {
		return nil, nil // no root package to audit
	}
	var pkgName string
	decls := map[string]ast.Node{} // exported name -> declaring node
	for name, pkg := range pkgs {
		pkgName = name
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						decls[d.Name.Name] = d
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls[s.Name.Name] = s
							}
						case *ast.ValueSpec:
							for _, name := range exportedNames(s.Names) {
								decls[name] = s
							}
						}
					}
				}
			}
		}
	}

	reached := map[string]bool{}
	var queue []string
	reach := func(name string) {
		if _, ok := decls[name]; ok && !reached[name] {
			reached[name] = true
			queue = append(queue, name)
		}
	}
	err = walkGo(root, func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if filepath.Dir(path) == filepath.Clean(root) && f.Name.Name == pkgName {
			return nil // inside the package
		}
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != mod {
				continue
			}
			local := pkgName
			if imp.Name != nil {
				local = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						reach(sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[name], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				reach(id.Name)
			}
			return true
		})
	}

	var out []string
	for name, node := range decls {
		if !reached[name] {
			p := fset.Position(node.Pos())
			out = append(out, fmt.Sprintf("%s:%d: unreached facade symbol %s: no file outside package %s names %s.%s",
				p.Filename, p.Line, name, pkgName, pkgName, name))
		}
	}
	return out, nil
}

// walkGo calls fn with every .go file under root, skipping hidden and
// testdata directories.
func walkGo(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		return fn(path)
	})
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", root)
}

// lintFile walks one file's top-level declarations and collects
// violations of the doc-comment rules.
func lintFile(fset *token.FileSet, file *ast.File) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}

	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue // method on an unexported type
			}
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			checkDoc(report, d.Pos(), d.Doc, kind, d.Name.Name)
		case *ast.GenDecl:
			lintGenDecl(report, d)
		}
	}
	return out
}

// lintGenDecl handles const/var/type declarations, including grouped
// forms where one comment may cover the whole block.
func lintGenDecl(report func(token.Pos, string, ...any), d *ast.GenDecl) {
	groupDoc := hasDoc(d.Doc)
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			doc := s.Doc
			if doc == nil {
				doc = d.Doc
			}
			checkDoc(report, s.Pos(), doc, "type", s.Name.Name)
			if st, ok := s.Type.(*ast.StructType); ok {
				lintStructFields(report, s.Name.Name, st)
			}
		case *ast.ValueSpec:
			exported := exportedNames(s.Names)
			if len(exported) == 0 {
				continue
			}
			if groupDoc {
				continue // the block comment covers the group
			}
			doc := s.Doc
			if doc == nil {
				doc = s.Comment // trailing line comment also counts for group members
			}
			if !hasDoc(doc) {
				report(s.Pos(), "exported %s %s has no doc comment", declKind(d.Tok), strings.Join(exported, ", "))
				continue
			}
			if len(exported) == 1 && s.Doc != nil {
				checkDoc(report, s.Pos(), s.Doc, declKind(d.Tok), exported[0])
			}
		}
	}
}

// lintStructFields requires doc comments on exported fields of an
// exported struct type; a trailing line comment satisfies the rule.
func lintStructFields(report func(token.Pos, string, ...any), typeName string, st *ast.StructType) {
	for _, f := range st.Fields.List {
		exported := exportedNames(f.Names)
		if len(exported) == 0 {
			continue
		}
		if !hasDoc(f.Doc) && !hasDoc(f.Comment) {
			report(f.Pos(), "exported field %s.%s has no doc comment", typeName, strings.Join(exported, ", "))
		}
	}
}

// checkDoc reports a missing doc comment, and for single-name
// declarations also enforces the starts-with-name convention.
func checkDoc(report func(token.Pos, string, ...any), pos token.Pos, doc *ast.CommentGroup, kind, name string) {
	if !hasDoc(doc) {
		report(pos, "exported %s %s has no doc comment", kind, name)
		return
	}
	first := firstDocWordLine(doc)
	for _, article := range []string{"A ", "An ", "The "} {
		first = strings.TrimPrefix(first, article)
	}
	if !strings.HasPrefix(first, name+" ") && !strings.HasPrefix(first, name+"'") &&
		first != name && !strings.HasPrefix(first, name+",") && !strings.HasPrefix(first, name+":") {
		report(pos, "doc comment for %s %s should start with %q", kind, name, name)
	}
}

// hasDoc reports whether the comment group contains real prose — at
// least one line that is not a compiler directive.
func hasDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		text = strings.TrimSpace(strings.TrimPrefix(text, "/*"))
		if text == "" || strings.HasPrefix(c.Text, "//go:") {
			continue
		}
		return true
	}
	return false
}

// firstDocWordLine returns the first non-empty, non-directive line of
// the comment group with comment markers stripped.
func firstDocWordLine(doc *ast.CommentGroup) string {
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//go:") {
			continue
		}
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimPrefix(text, "/*")
		text = strings.TrimSpace(text)
		if text != "" {
			return text
		}
	}
	return ""
}

// exportedReceiver reports whether a method's receiver names an
// exported type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// exportedNames filters an identifier list down to the exported names.
func exportedNames(idents []*ast.Ident) []string {
	var out []string
	for _, id := range idents {
		if id.IsExported() {
			out = append(out, id.Name)
		}
	}
	return out
}

// declKind maps a GenDecl token to the word used in messages.
func declKind(tok token.Token) string {
	switch tok {
	case token.CONST:
		return "const"
	case token.VAR:
		return "var"
	default:
		return "declaration"
	}
}
