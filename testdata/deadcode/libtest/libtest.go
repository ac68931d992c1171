// Package libtest is a test helper package: its symbols are exempt.
package libtest

func Unused() {}
