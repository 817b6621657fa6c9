package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestChaosGolden pins the rendered chaos-gauntlet report byte for byte:
// any drift in commit counts, verdicts, fault applications or quiesce times
// under the fixed seed is a behaviour change. Regenerate deliberately with
// -update.
func TestChaosGolden(t *testing.T) {
	out, _ := Chaos(mini)
	path := filepath.Join("testdata", "chaos.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if out != string(want) {
		t.Errorf("chaos report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}
