package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a file tree under a fresh temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// wantErr asserts err is non-nil and mentions every substring — the
// loader's contract is not just failing but saying what failed.
func wantErr(t *testing.T, err error, subs ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected an error containing %q, got nil", subs)
	}
	for _, sub := range subs {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not mention %q", err, sub)
		}
	}
}

// TestLoadDirParseError: a syntactically invalid file fails with the
// file named.
func TestLoadDirParseError(t *testing.T) {
	if testing.Short() {
		t.Skip("needs std export data; skipped in -short")
	}
	dir := writeTree(t, map[string]string{
		"bad.go": "package bad\n\nfunc oops( {\n",
	})
	_, err := LoadDir(dir)
	wantErr(t, err, "lint: parsing", "bad.go")
}

// TestLoadDirTypeError: a well-formed file that fails type-checking
// reports the real type error, not just "type-checking failed".
func TestLoadDirTypeError(t *testing.T) {
	if testing.Short() {
		t.Skip("needs std export data; skipped in -short")
	}
	dir := writeTree(t, map[string]string{
		"bad.go": "package bad\n\nvar x int = \"not an int\"\n",
	})
	_, err := LoadDir(dir)
	wantErr(t, err, "lint: type-checking")
}

// TestLoadDirMissingExportData: testdata packages may import only the
// standard library — anything else has no export data on the LoadDir
// path and must say so.
func TestLoadDirMissingExportData(t *testing.T) {
	if testing.Short() {
		t.Skip("needs std export data; skipped in -short")
	}
	dir := writeTree(t, map[string]string{
		"ext.go": "package ext\n\nimport _ \"example.com/not/vendored\"\n",
	})
	_, err := LoadDir(dir)
	wantErr(t, err, "no export data", "example.com/not/vendored")
}

// TestLoadDirEmpty: a directory with no Go files is an explicit error,
// not an empty package.
func TestLoadDirEmpty(t *testing.T) {
	dir := t.TempDir()
	_, err := LoadDir(dir)
	wantErr(t, err, "no .go files")
}
