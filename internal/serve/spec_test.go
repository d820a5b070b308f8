package serve

import (
	"flag"
	"io"
	"testing"

	"repro/pz"
)

// TestEngineFlags: the shared engine flags keep their names and
// defaults, and CheckEngineFlags rejects a zero parallelism and every
// negative knob.
func TestEngineFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var cfg pz.Config
	EngineFlags(fs, &cfg)
	want := map[string]string{"parallelism": "4", "partitions": "0", "batch": "0", "sample": "0", "reopt-after": "0"}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if def, ok := want[f.Name]; !ok || f.DefValue != def {
			t.Errorf("flag -%s default %q, want %q", f.Name, f.DefValue, def)
		}
	})
	if n != len(want) {
		t.Errorf("%d flags declared, want %d", n, len(want))
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := CheckEngineFlags(cfg); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, args := range [][]string{
		{"-parallelism", "0"}, {"-partitions", "-1"}, {"-batch", "-1"},
		{"-sample", "-1"}, {"-reopt-after", "-1"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var cfg pz.Config
		EngineFlags(fs, &cfg)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := CheckEngineFlags(cfg); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
