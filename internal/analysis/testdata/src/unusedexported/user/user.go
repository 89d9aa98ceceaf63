// Package user references lib from non-test code.
package user

import "unusedexported/lib"

// Run calls lib from shipped code and dispatches through lib.Hooker.
func Run() int {
	var h lib.Hooker = lib.Impl{}
	return lib.UsedElsewhere() + lib.Excused() + h.Hook()
}
