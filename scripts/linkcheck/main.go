// Command linkcheck fails when an exported function or method declared in
// internal/ or in the root facade package is linked into none of the
// repository's binaries and is not named, with a reason, in allow.txt.
//
// Run it from the repository root:
//
//	go run ./scripts/linkcheck
//
// It builds every main package of the root module, and the perfbench module,
// with inlining off (-gcflags=all=-l), because an inlined function may leave
// no symbol of its own and would then look unlinked. It reads each binary's
// text symbols with `go tool nm` and compares them with the exported
// function declarations it parses from the non-test Go files. It also fails
// when an allow.txt entry is linked, is no longer declared, or gives no
// known reason, so the list stays the record of what is kept on purpose.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "scripts/linkcheck/allow.txt"

// reasonPrefixes are the reasons an unlinked exported function may stay: a
// PAPER_MAP row, a name the facade declares, a named test that needs it, a
// kept function that calls it, or an open ROADMAP item.
var reasonPrefixes = []string{"paper:", "facade:", "test:", "via:", "roadmap:"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	module, err := goOutput("list", "-m")
	if err != nil {
		return err
	}
	module = strings.TrimSpace(module)
	f, err := os.Open(allowFile)
	if err != nil {
		return err
	}
	allow, err := parseAllow(f)
	f.Close()
	if err != nil {
		return err
	}
	decls, err := declared(module)
	if err != nil {
		return err
	}
	linked, bins, err := linkedSymbols(module)
	if err != nil {
		return err
	}

	var problems []string
	unlinked := 0
	for sym, pos := range decls {
		if linked[sym] {
			continue
		}
		unlinked++
		if _, ok := allow[sym]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is linked into no binary and is not in %s", pos, sym, allowFile))
		}
	}
	for sym := range allow {
		if _, ok := decls[sym]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is no longer declared", allowFile, sym))
		} else if linked[sym] {
			problems = append(problems, fmt.Sprintf("%s: %s is linked into a binary", allowFile, sym))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		return fmt.Errorf("problems: %d", len(problems))
	}
	fmt.Printf("linkcheck: %d binaries; %d exported functions, %d linked by none, all in %s\n",
		bins, len(decls), unlinked, allowFile)
	return nil
}

// goOutput runs the go command and returns its standard output.
func goOutput(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v", strings.Join(args, " "), err)
	}
	return string(out), nil
}

// linkedSymbols builds every binary into a temporary directory and returns
// the union of their text symbols, type arguments stripped, with the number
// of binaries built.
func linkedSymbols(module string) (map[string]bool, int, error) {
	tmp, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)

	list, err := goOutput("list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, 0, err
	}
	var mains []string
	for _, pkg := range strings.Fields(list) {
		if pkg != module+"/scripts/linkcheck" {
			mains = append(mains, pkg)
		}
	}
	build := append([]string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}, mains...)
	if _, err := goOutput(build...); err != nil {
		return nil, 0, err
	}
	// perfbench is a module of its own, so ./... above does not reach it.
	if _, err := goOutput("build", "-C", "perfbench", "-gcflags=all=-l", "-o", filepath.Join(tmp, "perfbench"), "."); err != nil {
		return nil, 0, err
	}

	bins, err := os.ReadDir(tmp)
	if err != nil {
		return nil, 0, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out, err := goOutput("tool", "nm", filepath.Join(tmp, bin.Name()))
		if err != nil {
			return nil, 0, err
		}
		for _, line := range strings.Split(out, "\n") {
			if sym, ok := textSymbol(line); ok {
				linked[stripTypeArgs(sym)] = true
			}
		}
	}
	return linked, len(bins), nil
}

// textSymbol returns the name on a `go tool nm` line ("address type name")
// when the symbol is code. The name is the rest of the line: it may hold
// spaces, as in an instantiation over interface {}.
func textSymbol(line string) (string, bool) {
	fields := strings.SplitN(strings.TrimLeft(line, " "), " ", 3)
	if len(fields) != 3 || fields[1] != "T" {
		return "", false
	}
	return fields[2], true
}

// stripTypeArgs removes every bracketed type-argument list from a symbol, so
// that each instantiation of a generic function or method carries the name
// of its declaration. The lists nest, as in
// pkg.(*Cache[go.shape.string,go.shape.interface {}]).Peek.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(sym); i++ {
		switch c := sym[i]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// declared parses the non-test Go files of internal/ and of the root package
// and maps each exported function and method, by its symbol name, to the
// position of its declaration.
func declared(module string) (map[string]string, error) {
	decls := map[string]string{}
	fset := token.NewFileSet()
	parseDir := func(dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		pkg := module
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					decls[symbolName(pkg, fn)] = fset.Position(fn.Pos()).String()
				}
			}
		}
		return nil
	}
	if err := parseDir("."); err != nil {
		return nil, err
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		return parseDir(path)
	})
	return decls, err
}

// symbolName renders a function declaration as `go tool nm` names its code
// once type arguments are stripped: pkg.F, pkg.T.M or pkg.(*T).M.
func symbolName(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star, ptr := t.(*ast.StarExpr)
	if ptr {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := types.ExprString(t)
	if ptr {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + fn.Name.Name
}

// parseAllow reads an allow list: one symbol per line, then its reason,
// which starts with one of reasonPrefixes and says more after it. Blank
// lines and lines starting with # are skipped.
func parseAllow(r io.Reader) (map[string]string, error) {
	allow := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if !knownReason(reason) {
			return nil, fmt.Errorf("%s:%d: %s: the reason must start with one of %s and say more",
				allowFile, n, sym, strings.Join(reasonPrefixes, " "))
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", allowFile, n, sym)
		}
		allow[sym] = reason
	}
	return allow, sc.Err()
}

func knownReason(reason string) bool {
	for _, p := range reasonPrefixes {
		if rest, ok := strings.CutPrefix(reason, p); ok && strings.TrimSpace(rest) != "" {
			return true
		}
	}
	return false
}
