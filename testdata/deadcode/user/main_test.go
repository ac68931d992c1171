package main

import (
	"testing"

	"fixture/lib"
)

func TestOther(t *testing.T) {
	if lib.OtherTestOnly() != 2 {
		t.Fatal("OtherTestOnly")
	}
}
