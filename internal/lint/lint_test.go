package lint

import (
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden runs each analyzer over its testdata corpus and checks the
// findings against the // want expectations embedded in the sources.
// Every corpus contains at least one true positive and one justified
// //uts:ok suppression, so this test pins both directions: the rule
// fires, and the escape hatch works.
func TestGolden(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			for _, err := range RunGolden(a, dir) {
				t.Error(err)
			}
		})
	}
}

// TestMalformedSuppression checks that //uts:ok without a justification
// is itself a finding and silences nothing.
func TestMalformedSuppression(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Detcheck, pkg)
	if err != nil {
		t.Fatal(err)
	}
	var sawBadComment, sawFinding bool
	for _, d := range diags {
		if strings.Contains(d.Message, "needs a justification") {
			sawBadComment = true
		}
		if strings.Contains(d.Message, "time.Now") {
			sawFinding = true
		}
	}
	if !sawBadComment {
		t.Errorf("malformed //uts:ok was not reported; got %v", diags)
	}
	if !sawFinding {
		t.Errorf("malformed //uts:ok silenced the underlying finding; got %v", diags)
	}
}

// TestMalformedDirectives checks the directive-hygiene findings that
// cannot be expressed as // want goldens (a // want comment cannot
// share the line with the malformed directive it describes): a
// //uts:plain with no reason, empty and malformed //uts:orders
// directives, and a nameless //uts:mark.
func TestMalformedDirectives(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "directivebad"))
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	for _, a := range []*Analyzer{Atomiccheck, Ordercheck} {
		ds, err := Run(a, pkg)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, ds...)
	}
	for _, wantSub := range []string{
		"//uts:plain needs a justification",
		"plain write of atomic word g.top", // the reasonless //uts:plain silences nothing
		"empty //uts:orders directive",
		`malformed //uts:orders pair "ledger<"`,
		"//uts:mark needs a group name",
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, wantSub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q; got %v", wantSub, diags)
		}
	}
}

// TestCheckAuditsSuppressions runs the whole suite the way uts-vet does
// over a corpus loaded as a deterministic package: a suppression with no
// reason, one naming an unknown analyzer and one that silences nothing are
// each reported exactly once, and a live one never.
func TestCheckAuditsSuppressions(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "audit"))
	if err != nil {
		t.Fatal(err)
	}
	pkg.PkgPath = "repro/internal/des" // where detcheck applies
	diags, err := Check(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"//uts:ok detcheck needs a justification",
		`suppression names unknown analyzer "detchek"`,
		"stale suppression: //uts:ok detcheck the next line reads no clock silences no detcheck finding",
		"time.Now", // the reasonless suppression silences nothing
	} {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d diagnostics contain %q, want 1; got %v", n, want, diags)
		}
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "live") {
			t.Errorf("a live suppression was reported: %v", d)
		}
	}
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4: %v", len(diags), diags)
	}
}

// TestRepoClean is the acceptance gate, run as make lint and CI run it:
// go vet -vettool=uts-vet over the module, every package with its _test.go
// files, must report nothing — no finding left unsilenced, and no
// suppression without a reason, naming an unknown analyzer, or silencing
// nothing. Real violations get fixed; accepted approximation gaps get an
// inline //uts:ok with a reason.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds uts-vet and vets the whole module; skipped in -short")
	}
	// go vet reads the sources in another process: list every directory
	// here, so that go test's result cache sees a file change.
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "uts-vet")
	if out, err := exec.Command("go", "build", "-o", tool, "repro/cmd/uts-vet").CombinedOutput(); err != nil {
		t.Fatalf("building uts-vet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool=uts-vet ./...: %v\n%s", err, out)
	}
}
