package load

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// testLoader loads testdata/mod, a module of three packages named loadtest.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestBuildTagExcluded pins the constraint handling: tagged's two sibling
// files redeclare V under a custom //go:build tag and a legacy // +build
// line, so the package type-checks only if both are excluded.
func TestBuildTagExcluded(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.Load("loadtest/tagged")
	if err != nil {
		t.Fatalf("load tagged: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (excluded.go and legacy.go must be skipped)", len(pkg.Files))
	}
}

// TestTypeCheckFailureIsAnError pins the failure mode: a package that does
// not type-check returns an error naming the package, never a panic.
func TestTypeCheckFailureIsAnError(t *testing.T) {
	l := testLoader(t)
	if _, err := l.Load("loadtest/broken"); err == nil {
		t.Fatal("load broken: expected a type-check error, got nil")
	} else if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error does not name the package: %v", err)
	}
}

// TestTestOnlyPackageFailsCleanly pins the _test.go-only edge: the loader
// skips test files by design, so the directory resolves to nothing and the
// load fails with an error instead of producing an empty package.
func TestTestOnlyPackageFailsCleanly(t *testing.T) {
	l := testLoader(t)
	if _, err := l.Load("loadtest/testonly"); err == nil {
		t.Fatal("load testonly: expected an error for a _test.go-only package, got nil")
	}
}

// TestLoadErrorIsMemoized pins that a failed load is cached like a success:
// the second call returns the same error without re-type-checking.
func TestLoadErrorIsMemoized(t *testing.T) {
	l := testLoader(t)
	_, err1 := l.Load("loadtest/broken")
	_, err2 := l.Load("loadtest/broken")
	if err1 == nil || err2 == nil {
		t.Fatal("expected errors from both loads")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("memoized error drifted: %q vs %q", err1, err2)
	}
}

func TestBuildTagOK(t *testing.T) {
	cases := []struct {
		tag  string
		want bool
	}{
		{runtime.GOOS, true},
		{runtime.GOARCH, true},
		{"gc", true},
		{"go1.21", true},
		{"fancytag", false},
		{"ignore", false},
	}
	for _, c := range cases {
		if got := buildTagOK(c.tag); got != c.want {
			t.Errorf("buildTagOK(%q) = %v, want %v", c.tag, got, c.want)
		}
	}
}
