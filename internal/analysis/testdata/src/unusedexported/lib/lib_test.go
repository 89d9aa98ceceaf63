package lib

import "testing"

func TestOnlyOwnTest(t *testing.T) {
	if OnlyOwnTest() != 1 {
		t.Fatal("OnlyOwnTest")
	}
}
