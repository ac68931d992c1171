package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 3 {
		t.Fatal("OwnTestOnly")
	}
}
