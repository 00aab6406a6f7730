package actfort_test

// The reachability gate: every top-level declaration in a non-test
// file under internal/ must be reachable from code that ships — a
// binary (cmd/, examples/), the benchmark harness (bench/, its own
// module built against internal/ names) or the public root package.
// Code that only tests reach is dead weight unless the allowlist
// below names it, with its reason and the tests that need it.
//
// The gate type-checks the module from source with go/types (the
// standard library only, so go.mod stays free of requirements) and
// propagates liveness over types.Info.Uses:
//
//   - roots: every declaration outside internal/, init functions and
//     allowlist entries;
//   - a live declaration makes live every declaration it uses;
//   - a method is live when its receiver type is live and either a
//     live declaration uses it, or some interface type mentioned in
//     the module's non-test code (or a reflection hook such as
//     String or MarshalJSON) has a method of that name;
//   - blank assertions (var _ I = (*T)(nil)) are neither roots nor
//     reported, and a const block using iota is judged as one
//     declaration.
//
// To add a root, put the code that needs the declaration in a binary,
// an example or the root package; to keep a test-only oracle or seam
// in production code, add an allowlist entry.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/actfort/actfort"

// reachAllow is the allowlist: declarations under internal/ that no
// binary, example or benchmark reaches but tests need. Keys are
// "internal/<pkg>.<Name>" or "internal/<pkg>.<Type>.<Method>"; each
// entry gives its reason and the tests that use it.
var reachAllow = map[string]struct {
	reason string
	tests  []string
}{
	"internal/a51.New": {
		reason: "the scalar A5/1 cipher is the reference the bitsliced encryptor, the table replay and the telecom batch encoder are held against",
		tests:  []string{"TestKnownAnswerVector", "TestBitslicedKeystreamEquivalence", "TestRecoverBatchMatchesScalar", "TestEncodeSMSBurstsIntoMatchesScalar", "BenchmarkAblationCrackKeyspace"},
	},
	"internal/a51.Cipher.KeystreamBurst": {
		reason: "the scalar keystream of the reference cipher, compared lane for lane with the bitsliced and batch paths",
		tests:  []string{"TestKnownAnswerVector", "TestBitslicedKeystreamEquivalence", "TestRecoverBatchMatchesScalar", "TestEncodeSMSBurstsIntoMatchesScalar", "BenchmarkAblationCrackKeyspace"},
	},
	"internal/a51.KeySpace.Contains": {
		reason: "oracle that a recovered key lies in the network's key space, in the a51, mitm and sniffer tests",
		tests:  []string{"TestKeySpace", "TestProbeCrackStep", "TestSniffEncryptedSMS", "TestSniffWithTableBackend"},
	},
	"internal/countermeasure.Policies": {
		reason: "lets the closure and plan oracles run under every registered policy; a list kept in the test would miss a new one",
		tests:  []string{"TestClosureMatchesReferenceOnCatalog", "TestFindPlanMatchesClosureOnCatalog"},
	},
	"internal/dataset.MustDefault": {
		reason: "the calibrated catalog as a test and benchmark precondition in five packages",
		tests:  []string{"TestEvaluateFortification", "TestPaperRenderersOnCalibratedData", "BenchmarkAuthenticateFlow", "BenchmarkE5Fig4Graph"},
	},
	"internal/ecosys.MustCatalog": {
		reason: "builds the small fixture catalogs of the authproc, collect, core and tdg tests",
		tests:  []string{"TestValidateCatalogViolations", "TestMeasure", "TestNewRejectsBadCatalog", "TestNodesFromCatalog"},
	},
	"internal/ecosys.NewInfoSet": {
		reason: "builds the exposure sets of the ecosys, strategy and tdg fixture graphs",
		tests:  []string{"TestInfoSetFactors", "TestPathLayersOverlap", "TestCycleTermination", "TestTripleCouples"},
	},
	"internal/ecosys.Catalog.CountPlatform": {
		reason: "oracle for the paper's 187 web and 56 mobile presences, in the dataset and ecosys tests",
		tests:  []string{"TestCatalogFrameCounts", "TestCatalogConstruction"},
	},
	"internal/identity.ValidCitizenID": {
		reason: "MOD 11-2 validator the identity and population tests check generated citizen IDs with",
		tests:  []string{"TestGeneratedCitizenIDsValid", "TestCitizenIDCheckProperty", "TestSubscriberValidity"},
	},
	"internal/identity.ValidLuhn": {
		reason: "Luhn validator the identity and population tests check generated bank cards with",
		tests:  []string{"TestGeneratedBankcardsLuhnValid", "TestLuhnCheckProperty", "TestSubscriberValidity"},
	},
	"internal/smsotp.WithClock": {
		reason: "test seam: drives code expiry and the sliding rate window without sleeping",
		tests:  []string{"TestExpiry", "TestRateLimit", "BenchmarkIssueVerify", "BenchmarkE14SMSOTPRoundTrip"},
	},
	"internal/tdg.Graph.Couples": {
		reason: "the couple file as the reference backward searcher reads it, and as the tdg couple tests check it; attack plans read the closure instead",
		tests:  []string{"TestCoupleNodes", "TestTripleCouples", "TestCoupleCapRespected", "TestPlanStepsAgainstReference", "TestFindPlanMatchesClosureOnCatalog"},
	},
	"internal/tdg.WithMaxCoupleSize": {
		reason: "test seam: the couple tests and the reference searcher's comparison graphs need triple couples, and the ablation benchmark sweeps the couple size",
		tests:  []string{"TestTripleCouples", "TestPropertyCouplesMinimalAndSufficient", "TestPlanStepsAgainstReference", "BenchmarkAblationCoupleSize"},
	},
}

// reachHooks are method names the standard library finds by
// reflection or type assertion, so a method with one of these names
// counts as satisfying an interface.
var reachHooks = []string{"String", "Error", "Format", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"}

// TestNoUnreachableCode fails on any top-level declaration under
// internal/ that no root reaches, and on any allowlist entry that is
// live without it, names nothing, or cites a test that does not exist.
func TestNoUnreachableCode(t *testing.T) {
	g, err := loadReachGraph()
	if err != nil {
		t.Fatal(err)
	}
	deadWithout := map[string]bool{}
	for _, d := range g.dead(nil) {
		deadWithout[d.key] = true
	}
	keys := make([]string, 0, len(reachAllow))
	for k := range reachAllow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	allowed := map[string]bool{}
	for _, k := range keys {
		e := reachAllow[k]
		switch {
		case !deadWithout[k]:
			t.Errorf("allowlist entry %s is stale: it names no unreachable declaration", k)
		case e.reason == "":
			t.Errorf("allowlist entry %s gives no reason", k)
		case len(e.tests) == 0:
			t.Errorf("allowlist entry %s names no test", k)
		}
		for _, name := range e.tests {
			if !g.tests[name] {
				t.Errorf("allowlist entry %s cites test %s, which does not exist", k, name)
			}
		}
		allowed[k] = true
		t.Logf("allowlisted %s: %s (used by %s)", k, e.reason, strings.Join(e.tests, ", "))
	}
	for _, d := range g.dead(allowed) {
		t.Errorf("%s: %s is unreachable from cmd/, examples/, bench/, the root package and the allowlist (%d lines)",
			g.fset.Position(d.pos), d.key, d.lines)
	}
}

// reachDecl is one top-level declaration under internal/.
type reachDecl struct {
	key   string // "internal/<pkg>.<Name>" or "...<Type>.<Method>"
	name  string // method name, for methods
	pos   token.Pos
	lines int
	typ   types.Object   // the declared type name, for types
	recv  types.Object   // receiver type name, for methods
	uses  []types.Object // top-level objects the declaration uses
	root  bool           // init function
}

type reachGraph struct {
	fset    *token.FileSet
	decls   []*reachDecl
	byObj   map[types.Object]*reachDecl
	methods map[types.Object][]*reachDecl // receiver type → its methods
	rootUse []types.Object                // objects used outside internal/
	iface   map[string]bool               // interface method names
	tests   map[string]bool               // test function names
}

// dead returns the declarations no root reaches, extra naming
// additional roots by key.
func (g *reachGraph) dead(extra map[string]bool) []*reachDecl {
	live := map[*reachDecl]bool{}
	called := map[*reachDecl]bool{}
	var work []*reachDecl
	mark := func(d *reachDecl) {
		if !live[d] {
			live[d] = true
			work = append(work, d)
		}
	}
	use := func(o types.Object) {
		d := g.byObj[o]
		if d == nil {
			return
		}
		if d.recv == nil {
			mark(d)
			return
		}
		called[d] = true
		if live[g.byObj[d.recv]] {
			mark(d)
		}
	}
	for _, o := range g.rootUse {
		use(o)
	}
	for _, d := range g.decls {
		if d.root || extra[d.key] {
			mark(d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, o := range d.uses {
			use(o)
		}
		for _, m := range g.methods[d.typ] {
			if called[m] || g.iface[m.name] {
				mark(m)
			}
		}
	}
	var out []*reachDecl
	for _, d := range g.decls {
		if !live[d] {
			out = append(out, d)
		}
	}
	return out
}

// reachLoader type-checks the module's packages from source into one
// shared types.Info, delegating standard-library imports.
type reachLoader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func loadReachGraph() (*reachGraph, error) {
	fset := token.NewFileSet()
	l := &reachLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
	}
	g := &reachGraph{
		fset:    fset,
		byObj:   map[types.Object]*reachDecl{},
		methods: map[types.Object][]*reachDecl{},
		iface:   map[string]bool{},
		tests:   map[string]bool{},
	}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					g.tests[fd.Name.Name] = true
				}
			}
			return nil
		}
		ip := modulePath
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ip += "/" + dir
		}
		l.files[ip] = append(l.files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}

	usesIn := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := l.info.Uses[id]; o != nil {
					out = append(out, origin(o))
				}
			}
			return true
		})
		return out
	}
	internalPrefix := modulePath + "/internal/"
	for _, p := range paths {
		rel, internal := strings.CutPrefix(p, internalPrefix)
		for _, f := range l.files[p] {
			if !internal {
				g.rootUse = append(g.rootUse, usesIn(f)...)
				continue
			}
			add := func(key string, objs []types.Object, n ast.Node, doc *ast.CommentGroup) *reachDecl {
				start := n.Pos()
				if doc != nil {
					start = doc.Pos()
				}
				d := &reachDecl{
					key:   "internal/" + rel + "." + key,
					pos:   n.Pos(),
					lines: fset.Position(n.End()).Line - fset.Position(start).Line + 1,
					uses:  usesIn(n),
				}
				for _, o := range objs {
					g.byObj[o] = d
				}
				g.decls = append(g.decls, d)
				return d
			}
			for _, decl := range f.Decls {
				switch dd := decl.(type) {
				case *ast.FuncDecl:
					fn := l.info.Defs[dd.Name].(*types.Func)
					if dd.Recv == nil {
						d := add(dd.Name.Name, []types.Object{fn}, dd, dd.Doc)
						d.root = dd.Name.Name == "init"
						continue
					}
					recv := recvTypeName(fn)
					d := add(recv.Name()+"."+dd.Name.Name, []types.Object{fn}, dd, dd.Doc)
					d.name, d.recv = dd.Name.Name, recv
					g.methods[recv] = append(g.methods[recv], d)
				case *ast.GenDecl:
					if dd.Tok == token.IMPORT {
						continue
					}
					if dd.Tok == token.CONST && usesIota(dd) {
						var objs []types.Object
						for _, s := range dd.Specs {
							for _, n := range s.(*ast.ValueSpec).Names {
								objs = append(objs, l.info.Defs[n])
							}
						}
						add(dd.Specs[0].(*ast.ValueSpec).Names[0].Name, objs, dd, dd.Doc)
						continue
					}
					for _, s := range dd.Specs {
						doc := dd.Doc
						if dd.Lparen.IsValid() {
							doc = nil
						}
						switch ss := s.(type) {
						case *ast.TypeSpec:
							if ss.Doc != nil {
								doc = ss.Doc
							}
							tn := l.info.Defs[ss.Name]
							add(ss.Name.Name, []types.Object{tn}, ss, doc).typ = tn
						case *ast.ValueSpec:
							if ss.Doc != nil {
								doc = ss.Doc
							}
							if isBlank(ss) {
								continue
							}
							var objs []types.Object
							for _, n := range ss.Names {
								objs = append(objs, l.info.Defs[n])
							}
							add(ss.Names[0].Name, objs, ss, doc)
						}
					}
				}
			}
		}
	}

	for _, h := range reachHooks {
		g.iface[h] = true
	}
	seen := map[types.Type]bool{}
	for _, p := range paths {
		for _, f := range l.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				if vs, ok := n.(*ast.ValueSpec); ok && isBlank(vs) {
					return false // an assertion mentions its interface, it does not use it
				}
				if e, ok := n.(ast.Expr); ok {
					collectIfaceNames(l.info.TypeOf(e), g.iface, seen)
				}
				if id, ok := n.(*ast.Ident); ok {
					if o := l.info.ObjectOf(id); o != nil {
						collectIfaceNames(o.Type(), g.iface, seen)
					}
				}
				return true
			})
		}
	}
	return g, nil
}

// origin maps an instantiated generic object to its declaration.
func origin(o types.Object) types.Object {
	switch oo := o.(type) {
	case *types.Func:
		return oo.Origin()
	case *types.Var:
		return oo.Origin()
	}
	return o
}

// recvTypeName returns the named type a method is declared on.
func recvTypeName(fn *types.Func) types.Object {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// isBlank reports whether a value spec declares only blank names, as
// an interface assertion var _ I = (*T)(nil) does.
func isBlank(vs *ast.ValueSpec) bool {
	for _, n := range vs.Names {
		if n.Name != "_" {
			return false
		}
	}
	return true
}

// usesIota reports whether a const block mentions iota.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// collectIfaceNames adds the method names of every interface type t
// mentions, through composite and function types but not through a
// named type's struct fields.
func collectIfaceNames(t types.Type, names map[string]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch tt := t.(type) {
	case *types.Named:
		if it, ok := tt.Underlying().(*types.Interface); ok {
			collectIfaceNames(it, names, seen)
		}
		for i := 0; i < tt.TypeArgs().Len(); i++ {
			collectIfaceNames(tt.TypeArgs().At(i), names, seen)
		}
	case *types.Interface:
		for i := 0; i < tt.NumMethods(); i++ {
			names[tt.Method(i).Name()] = true
		}
	case *types.Pointer:
		collectIfaceNames(tt.Elem(), names, seen)
	case *types.Slice:
		collectIfaceNames(tt.Elem(), names, seen)
	case *types.Array:
		collectIfaceNames(tt.Elem(), names, seen)
	case *types.Chan:
		collectIfaceNames(tt.Elem(), names, seen)
	case *types.Map:
		collectIfaceNames(tt.Key(), names, seen)
		collectIfaceNames(tt.Elem(), names, seen)
	case *types.Signature:
		collectIfaceNames(tt.Params(), names, seen)
		collectIfaceNames(tt.Results(), names, seen)
	case *types.Tuple:
		for i := 0; i < tt.Len(); i++ {
			collectIfaceNames(tt.At(i).Type(), names, seen)
		}
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			collectIfaceNames(tt.Field(i).Type(), names, seen)
		}
	case *types.TypeParam:
		collectIfaceNames(tt.Constraint(), names, seen)
	}
}
