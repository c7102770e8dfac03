package backend

import (
	"reflect"
	"testing"

	"fastliveness/internal/ir"
)

const reducibleSrc = `
func @red(%n) {
entry:
  %zero = const 0
  %one = const 1
  br head
head:
  %i = phi [%zero, entry], [%inext, body]
  %cmp = cmplt %i, %n
  if %cmp -> body, exit
body:
  %inext = add %i, %one
  br head
exit:
  ret %i
}
`

// Two-entry cycle a<->b: classic irreducible control flow.
const irreducibleSrc = `
func @irr(%p) {
entry:
  %c = cmplt %p, %p
  if %c -> a, b
a:
  %x = add %p, %p
  br b
b:
  %y = add %p, %c
  if %y -> a, exit
exit:
  ret %p
}
`

func TestRegistryHoldsFourEngines(t *testing.T) {
	want := []string{"checker", "dataflow", "lao", "pervar"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		b, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, b.Name())
		}
	}
}

func TestGetEmptyResolvesToDefault(t *testing.T) {
	b, err := Get("")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != DefaultName {
		t.Fatalf("empty name resolved to %q, want %q", b.Name(), DefaultName)
	}
	if _, err := Get("nosuch"); err == nil {
		t.Fatal("Get of unknown backend should fail")
	}
}

type dummyBackend struct{ name string }

func (d dummyBackend) Name() string                          { return d.name }
func (dummyBackend) Analyze(*ir.Func, *Prep) (Result, error) { return nil, nil }

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	Register(dummyBackend{name: DefaultName})
}

// Every backend analyzes irreducible control flow, and each reports its
// own name and invalidation class there exactly as on reducible CFGs.
func TestIrreducibleParity(t *testing.T) {
	f := ir.MustParse(irreducibleSrc)
	p, err := Prepare(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reducible() {
		t.Fatal("test program should be irreducible")
	}
	for _, name := range Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Analyze(f, p)
		if err != nil {
			t.Fatalf("%s on irreducible CFG: %v", name, err)
		}
		if res.Backend() != name {
			t.Fatalf("%s result names itself %q", name, res.Backend())
		}
		want := InvalidatedByAnyEdit
		if name == DefaultName {
			want = InvalidatedByCFGChanges
		}
		if res.Invalidation() != want {
			t.Fatalf("%s result invalidation = %v, want %v", name, res.Invalidation(), want)
		}
	}
}

// AnalyzeSets runs the per-variable walk on every CFG, with no
// reducibility branch.
func TestAnalyzeSetsSelection(t *testing.T) {
	for _, src := range []string{reducibleSrc, irreducibleSrc} {
		f := ir.MustParse(src)
		if res := AnalyzeSets(f); res.Backend() != "pervar" {
			t.Fatalf("AnalyzeSets on %s used %q, want pervar", f.Name, res.Backend())
		}
	}
}

// The checker builds on the Prep it is given instead of rebuilding the
// CFG analyses.
func TestAnalyzeSharesPrep(t *testing.T) {
	f := ir.MustParse(reducibleSrc)
	p, err := Prepare(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get("checker")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Analyze(f, p)
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := res.(*CheckerResult)
	if !ok {
		t.Fatalf("checker backend returned %T", res)
	}
	if cr.Prep() != p {
		t.Fatal("Analyze rebuilt the prep instead of sharing it")
	}
}

func TestPrepareRejectsUnreachable(t *testing.T) {
	f := ir.NewFunc("orphan")
	entry := f.NewBlock(ir.BlockRet)
	entry.SetControl(entry.NewValueI(ir.OpConst, 1))
	f.NewBlock(ir.BlockRet) // never linked to the entry
	if _, err := Prepare(f); err == nil {
		t.Fatal("Prepare should reject unreachable blocks")
	}
}

func TestInvalidationStrings(t *testing.T) {
	if got := InvalidatedByCFGChanges.String(); got != "cfg-changes" {
		t.Errorf("InvalidatedByCFGChanges = %q", got)
	}
	if got := InvalidatedByAnyEdit.String(); got != "any-edit" {
		t.Errorf("InvalidatedByAnyEdit = %q", got)
	}
	if got := Invalidation(9).String(); got != "invalidation(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}
