// Command app is a nested module's main package: its own exported
// identifiers are not judged, and its references count.
package main

import (
	"fmt"

	"unusedexported/lib"
	"unusedexported/user"
)

// Helper is exported in a main package, which nothing imports.
func Helper() {}

func main() { fmt.Println(lib.UsedFromNested(), user.Run()) }
