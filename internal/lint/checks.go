package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Checks returns the full registry, in reporting order.
func Checks() []*Check {
	return []*Check{
		determinismCheck,
		hotpathCheck,
		floatcmpCheck,
		errwrapCheck,
		panicfreeCheck,
		locksafeCheck,
		goroleakCheck,
		atomicmixCheck,
		ctxleakCheck,
		maporderCheck,
	}
}

// KnownChecks is the set of names a //flowlint:ignore directive may
// reference: the names of Checks().
func KnownChecks() map[string]bool {
	known := make(map[string]bool)
	for _, c := range Checks() {
		known[c.Name] = true
	}
	return known
}

// protectedSuffixes are the packages whose outputs must be bit-identical
// for a given seed: the RNG itself, the MH sampler, the model core, and
// the two learners whose estimates feed reported numbers. Matching is by
// import-path suffix so fixture packages can opt in by mirroring the
// layout.
var protectedSuffixes = []string{
	"internal/rng",
	"internal/mh",
	"internal/core",
	"internal/unattrib",
	"internal/ctic",
}

// hasPathSuffix reports whether path ends with the given slash-separated
// suffix on a segment boundary.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pathHasSegment reports whether path contains seg as a whole segment.
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// isProtectedPkg reports whether the unit belongs to the determinism-
// protected set. A foo_test external unit inherits foo's protection.
func isProtectedPkg(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, s := range protectedSuffixes {
		if hasPathSuffix(path, s) {
			return true
		}
	}
	return false
}

// isClockBannedPkg reports whether wall-clock reads are forbidden in the
// unit: the protected set plus the experiment drivers and the CLIs,
// whose outputs must be reproducible given a seed.
func isClockBannedPkg(path string) bool {
	return isProtectedPkg(path) ||
		hasPathSuffix(strings.TrimSuffix(path, "_test"), "internal/experiments") ||
		pathHasSegment(path, "cmd")
}

// isLibraryPkg reports whether the unit is library code (as opposed to a
// command, example, or test-only package): the module root or anything
// under an internal directory.
func (p *Package) isLibraryPkg() bool {
	if strings.HasSuffix(p.Path, "_test") {
		return false
	}
	return p.Path == p.ModPath || pathHasSegment(p.Path, "internal")
}

// calleeObj resolves the object a call expression invokes, or nil for
// builtins, conversions and indirect calls through function values.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // qualified identifier pkg.Func
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name, matching
// pkgPath by suffix so module-qualified paths (infoflow/internal/jsonx)
// match their short form.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	return hasPathSuffix(obj.Pkg().Path(), pkgPath)
}
