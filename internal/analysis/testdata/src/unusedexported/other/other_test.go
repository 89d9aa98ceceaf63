package other

import (
	"testing"

	"unusedexported/lib"
)

func TestUsesLib(t *testing.T) {
	if lib.UsedByOtherTest() != 3 || two() != 2 {
		t.Fatal("lib")
	}
}
