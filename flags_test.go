package repro

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newOptionsFlagSet() (*Options, *flag.FlagSet) {
	o := new(Options)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.RegisterFlags(fs)
	return o, fs
}

func TestRegisterFlagsDefaults(t *testing.T) {
	o, fs := newOptionsFlagSet()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := (Options{Timeout: 2500 * time.Millisecond}); !reflect.DeepEqual(*o, want) {
		t.Errorf("defaults = %+v, want %+v", *o, want)
	}
	for _, name := range []string{"timeout", "workers", "compile-workers", "speculate",
		"portfolio", "cache", "nocanon", "strategy", "approx-min-samples"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

// TestRegisterFlagsSentinels: the -1 sentinels the help texts advertise are
// exactly the ones Validate accepts.
func TestRegisterFlagsSentinels(t *testing.T) {
	o, fs := newOptionsFlagSet()
	for _, name := range []string{"cache", "compile-workers"} {
		if usage := fs.Lookup(name).Usage; !strings.Contains(usage, "-1 =") || strings.Contains(usage, "negative") {
			t.Errorf("-%s help %q does not document the -1 sentinel alone", name, usage)
		}
	}
	if err := fs.Parse([]string{"-cache", "-1", "-compile-workers", "-1", "-strategy", "gradient"}); err != nil {
		t.Fatal(err)
	}
	if o.CacheSize != -1 || o.CompileWorkers != -1 || o.Strategy != StrategyGradient {
		t.Errorf("parsed %+v", *o)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("Validate rejected the parsed flags: %v", err)
	}
}

func TestRegisterFlagsRejectsUnknownStrategy(t *testing.T) {
	_, fs := newOptionsFlagSet()
	if err := fs.Parse([]string{"-strategy", "bogus"}); err == nil {
		t.Error("-strategy bogus parsed without error")
	}
}
