// Package lib declares the symbols the dead-symbol guard's fixture test
// expects it to flag, and the ones it expects it to keep.
package lib

import "fmt"

func DeadFunc() {}

type DeadType struct{}

var DeadVar = 1

const DeadConst = 2

// Asserted is referenced only by an interface assertion.
type Asserted struct{}

func (Asserted) String() string { return "asserted" }

var _ fmt.Stringer = Asserted{}

// SelfOnly is referenced only by itself.
func SelfOnly(n int) int {
	if n == 0 {
		return 0
	}
	return SelfOnly(n - 1)
}

// ExternalOnly is used only by the external directory ext/.
func ExternalOnly() int { return 1 }

// OtherTestOnly is used only by another package's test.
func OtherTestOnly() int { return 2 }

// OwnTestOnly is used only by this package's tests.
func OwnTestOnly() int { return 3 }

// Live is used by package main in user/; its methods are out of scope.
type Live struct{ n int }

func (l Live) unused() int { return l.n }

func (l Live) Unused() int { return l.n }
