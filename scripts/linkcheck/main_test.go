package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestTextSymbolStripsTypeArgs runs `go tool nm` lines of this repository's
// binaries through the parse. Shape names hold spaces and nested brackets,
// so splitting the line on spaces would cut the method name off.
func TestTextSymbolStripsTypeArgs(t *testing.T) {
	for _, tc := range []struct {
		line string
		want string // "" when the line is not code
	}{
		{
			"  71c700 T universalnet/internal/cache.(*Cache[go.shape.string,go.shape.interface {}]).Peek",
			"universalnet/internal/cache.(*Cache).Peek",
		},
		{
			"  58ec80 T universalnet/internal/cache.(*Cache[go.shape.string,go.shape.struct { Steps int; Delivered int; MaxQueue int; TotalHops int; StepsPerPhase []int }]).GetOrCompute",
			"universalnet/internal/cache.(*Cache).GetOrCompute",
		},
		{
			"  71ea60 T universalnet/internal/cache.New[go.shape.string,go.shape.interface {}].func1",
			"universalnet/internal/cache.New.func1",
		},
		{"  558be0 T universalnet/internal/core.Params.Defaults", "universalnet/internal/core.Params.Defaults"},
		{"  55b0c0 T universalnet/internal/graph.(*Graph).BFS", "universalnet/internal/graph.(*Graph).BFS"},
		{"  8ade00 R universalnet/internal/cache..dict.Cache[string,interface {}]", ""},
		{"", ""},
	} {
		sym, ok := textSymbol(tc.line)
		if got := stripTypeArgs(sym); ok != (tc.want != "") || got != tc.want {
			t.Errorf("%q: got %q, %v; want %q", tc.line, got, ok, tc.want)
		}
	}
}

func TestSymbolName(t *testing.T) {
	src := `package p
func F() {}
func (T) Value() {}
func (*T) Pointer() {}
func (c *Cache[K, V]) Peek() {}
func (s Set[K]) Has() {}
`
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"m/p.F", "m/p.T.Value", "m/p.(*T).Pointer", "m/p.(*Cache).Peek", "m/p.Set.Has"}
	for i, d := range file.Decls {
		if got := symbolName("m/p", d.(*ast.FuncDecl)); got != want[i] {
			t.Errorf("declaration %d: %q, want %q", i, got, want[i])
		}
	}
}

func TestParseAllow(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		err  string // "" when the list must parse
	}{
		{"reasons", "# kept on purpose\n\nm/p.F paper: Lemma 3.3\nm/p.(*T).M   via: m/p.F\n", ""},
		{"no reason", "m/p.F\n", "must start with one of"},
		{"prefix alone", "m/p.F test:\n", "must start with one of"},
		{"unknown prefix", "m/p.F because: tests use it\n", "must start with one of"},
		{"listed twice", "m/p.F paper: x\nm/p.F test: TestF\n", "listed twice"},
	} {
		allow, err := parseAllow(strings.NewReader(tc.in))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err == "" && (allow["m/p.F"] != "paper: Lemma 3.3" || allow["m/p.(*T).M"] != "via: m/p.F" || len(allow) != 2):
			t.Errorf("%s: parsed %q", tc.name, allow)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		}
	}
}
