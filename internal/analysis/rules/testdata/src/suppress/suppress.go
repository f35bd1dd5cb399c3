// Package fixture proves the //lint:ignore suppression directive: every
// violation below carries a directive, so running the full default rule
// set over this package must produce no diagnostics at all — except the
// ones marked want: a directive naming the wrong rule, one naming a rule
// that no longer exists, and a malformed directive, which must be
// reported rather than silently swallowed.
package fixture

import "errors"

var errStop = errors.New("stop")

var lo, hi = 0.1, 0.2

//lint:ignore float-equality directive on the line above suppresses
var same = lo == hi

// inline demonstrates a same-line directive.
func inline(err error) bool {
	return err == errStop //lint:ignore errsentinel same-line directive suppresses
}

// multiRule demonstrates suppressing two rules on one line with a
// comma-separated list.
func multiRule(err error, a, b float64) bool {
	//lint:ignore errsentinel,float-equality comma list covers both rules
	return err == errStop && a == b
}

// otherRule checks that a directive naming a different rule does NOT
// suppress; this finding must still surface.
func otherRule(a, b float64) bool {
	//lint:ignore errsentinel wrong rule name, does not apply
	return a == b // want "epsilon"
}

// staleRule checks that a directive naming a deleted rule suppresses
// nothing: the name matches no rule, so the finding still surfaces.
func staleRule(a, b float64) bool {
	//lint:ignore nondeterministic-map-range the rule is gone, does not apply
	return a == b // want "epsilon"
}

// want+2 "malformed lint:ignore directive"

//lint:ignore float-equality
var missingReason = 1.0
