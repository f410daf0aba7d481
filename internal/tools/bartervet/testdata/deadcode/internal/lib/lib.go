// Package lib seeds the deadcode golden test. It sits under an internal/
// directory because only internal/ packages are in the check's scope.
package lib

import "fmt"

// Unused is referenced nowhere: flagged.
func Unused() int { return 1 }

// Used is called from a non-test file below: silent.
func Used() int { return 2 }

// Limit is read only by a test: flagged, a test is not a user.
const Limit = 3

// Recurse calls only itself: flagged, its own body does not count.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Chain refers only to itself: flagged.
type Chain struct{ next *Chain }

// Hook is kept for callers outside the module.
//
//barter:allow deadcode the seeded waiver: silent
var Hook func()

// Box carries the method cases; helper uses the type, not its methods.
type Box struct{}

// Dead is called by no file: flagged.
func (Box) Dead() int { return 0 }

// String is fmt.Stringer's: a call through the interface may use it, silent.
func (Box) String() string { return "box" }

// Size is sizer's, an interface of this package: silent.
func (Box) Size() int { return 4 }

// Len is called only by a test: flagged. sort.Interface declares a Len,
// but nothing loaded imports sort.
func (Box) Len() int { return 0 }

type sizer interface{ Size() int }

func helper() int { return Used() + len(fmt.Sprint(Box{})) + sizer(Box{}).Size() }
