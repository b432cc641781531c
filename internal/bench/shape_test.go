package bench

import (
	"os/exec"
	"strings"
	"testing"
)

// TestShapeRules runs the repository's structural rules, scripts/shape.sh
// (DESIGN.md §11), so that tier-1 is the one gate: a rule that fails fails
// this test, named, with the script's output. The rules grep the git work
// tree and are written in bash; without either the test skips, saying
// which. The script writes nothing into the tree.
func TestShapeRules(t *testing.T) {
	bash, err := exec.LookPath("bash")
	if err != nil {
		t.Skipf("scripts/shape.sh needs bash: %v", err)
	}
	if err := exec.Command("git", "rev-parse", "--is-inside-work-tree").Run(); err != nil {
		t.Skipf("the rules read a git work tree, and this is none: %v", err)
	}
	out, err := exec.Command(bash, "../../scripts/shape.sh").CombinedOutput()
	if err == nil {
		return
	}
	var failed []string
	for _, line := range strings.Split(string(out), "\n") {
		if rule, ok := strings.CutPrefix(line, "shape: FAIL "); ok {
			rule, _, _ = strings.Cut(rule, " — ")
			failed = append(failed, rule)
		}
	}
	t.Fatalf("scripts/shape.sh: %v; failing: %s\n%s", err, strings.Join(failed, ", "), out)
}
