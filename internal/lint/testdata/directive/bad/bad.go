// Directive hygiene: a suppression without a reason is malformed, and
// one that suppresses nothing is stale. Both are diagnostics (expected
// lines are asserted programmatically in lint_test.go, since these
// lines already carry //lint: comments).
package dirs

// missingReason has a directive with no justification.
func missingReason(fn func()) {
	//lint:ignore baregoroutine
	go fn()
}

// stale suppresses an analyzer that finds nothing here.
func stale() {
	//lint:ignore baregoroutine there is no goroutine on the next line
	_ = 0
}

// outsideRunSet names an analyzer that did not run: not stale, no finding.
func outsideRunSet() {
	//lint:ignore errsink names an analyzer outside the run set
	_ = 0
}
