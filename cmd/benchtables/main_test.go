package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// benchFlags runs main's own flag registration on a fresh FlagSet so the
// warning logic is testable without running a benchmark — and cannot
// drift from the real flag set, because it IS the real registration.
func benchFlags(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWarnIgnoredFlags(t *testing.T) {
	cases := []struct {
		table string
		args  []string
		want  []string
	}{
		// Defaults never warn, whatever the table.
		{"scaling", nil, nil},
		// A flag the table honors stays silent.
		{"backends", []string{"-limit", "10"}, nil},
		{"engine", []string{"-workers", "4", "-funcs", "64"}, nil},
		{"latency", []string{"-editevery", "16", "-limit", "10"}, nil},
		// The classic trap: -workers on a table that never builds an engine.
		{"backends", []string{"-workers", "32"},
			[]string{"-workers is ignored by -table backends"}},
		{"scaling", []string{"-limit", "10"},
			[]string{"-limit is ignored by -table scaling"}},
		{"engine", []string{"-regs", "4"},
			[]string{"-regs is ignored by -table engine"}},
		{"pipeline", []string{"-editevery", "8"},
			[]string{"-editevery is ignored by -table pipeline"}},
		// Always-honored flags never warn.
		{"scaling", []string{"-debug-addr", "localhost:0"}, nil},
		// Several ignored flags warn once each, in flag-name order.
		{"warmstart", []string{"-workers", "4", "-regs", "2", "-funcs", "9"},
			[]string{
				"-funcs is ignored by -table warmstart",
				"-regs is ignored by -table warmstart",
				"-workers is ignored by -table warmstart",
			}},
		// "all" honors everything.
		{"all", []string{"-funcs", "4", "-regs", "2", "-limit", "10", "-workers", "1"}, nil},
	}
	for _, c := range cases {
		got := warnIgnoredFlags(c.table, benchFlags(t, c.args...))
		if strings.Join(got, ";") != strings.Join(c.want, ";") {
			t.Errorf("table %s args %v:\n got %v\nwant %v", c.table, c.args, got, c.want)
		}
	}
}

// TestFlagTablesCoverRegisteredFlags fails when a flag is registered but
// classified nowhere: every flag must either appear in flagTables (so
// warnIgnoredFlags can police it) or be declared always-honored. This is
// the drift guard — adding a flag without deciding which tables honor it
// is exactly the bug the warning machinery exists to prevent.
func TestFlagTablesCoverRegisteredFlags(t *testing.T) {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	registerFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		_, policed := flagTables[f.Name]
		if !policed && !alwaysHonoredFlags[f.Name] {
			t.Errorf("flag -%s is registered but absent from both flagTables and alwaysHonoredFlags", f.Name)
		}
	})
	// The reverse direction: flagTables must not name flags that no
	// longer exist (a stale entry silently polices nothing).
	registered := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	for name := range flagTables {
		if !registered[name] {
			t.Errorf("flagTables entry %q names an unregistered flag", name)
		}
	}
	for name := range alwaysHonoredFlags {
		if !registered[name] {
			t.Errorf("alwaysHonoredFlags entry %q names an unregistered flag", name)
		}
	}
}
