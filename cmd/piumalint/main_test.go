package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMalformedDirectiveInModuleOnlyRun checks that a reason-less
// //lint:ignore is reported once, under "directive", whichever
// analyzers run: a run of only the interprocedural analyzers must not
// skip the directive check that a default run makes.
func TestMalformedDirectiveInModuleOnlyRun(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"internal/sim/sim.go": `package sim

// NewEngine is clean; the directive above it lacks a reason.
//
//lint:ignore detertaint
func NewEngine() int { return 1 }
`,
	}
	for rel, content := range files {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(root)

	for _, args := range [][]string{
		{"./internal/sim"},
		{"-analyzer", "detertaint", "./internal/sim"},
		{"-analyzer", "lockorder,gorolifetime", "./..."},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			stdout, err := os.CreateTemp(t.TempDir(), "stdout")
			if err != nil {
				t.Fatal(err)
			}
			defer stdout.Close()
			if code := run(args, stdout, os.Stderr); code != 1 {
				t.Errorf("exit status %d, want 1", code)
			}
			out, err := os.ReadFile(stdout.Name())
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			if len(lines) != 1 || !strings.Contains(lines[0], "sim.go:5:1: directive: malformed //lint:ignore") {
				t.Errorf("want one malformed-directive finding at sim.go:5:1, got:\n%s", out)
			}
		})
	}
}
