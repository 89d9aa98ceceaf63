// Package lib is the golden corpus for fedlint/unused-exported: each
// exported identifier is referenced from a different place, or nowhere.
package lib

// Unreferenced has no reference at all.
func Unreferenced() {} // want "Unreferenced is referenced nowhere"

// OnlyOwnTest is called by this package's tests alone.
func OnlyOwnTest() int { return 1 } // want "OnlyOwnTest is referenced nowhere"

// UsedElsewhere is called by package user.
func UsedElsewhere() int { return 2 }

// UsedByOtherTest is called only by package other's tests.
func UsedByOtherTest() int { return 3 }

// UsedFromNested is called only by the nested module.
func UsedFromNested() int { return 4 }

// UsedInternally is called by this package's own code.
func UsedInternally() int { return 5 }

func internal() int { return UsedInternally() }

// Limit is an unreferenced constant.
const Limit = 8 // want "Limit is referenced nowhere"

// Lonely is referenced only by the receiver of its own method.
type Lonely struct{} // want "Lonely is referenced nowhere"

// Alone is a method nothing calls and no interface declares.
func (Lonely) Alone() {} // want "Alone is referenced nowhere"

// Hooker is the interface user's Run dispatches through.
type Hooker interface {
	Hook() int
	Name() string
}

// Base provides a default Hook for types that embed it.
type Base struct{}

// Hook is reached through Hooker by every type embedding Base.
func (Base) Hook() int { return internal() }

// Impl satisfies Hooker with Base's promoted Hook.
type Impl struct{ Base }

// Name satisfies Hooker; nothing calls it by name.
func (Impl) Name() string { return "impl" }

// Spare is never referenced, and says why it stays.
//
//lint:ignore fedlint/unused-exported kept for a caller that lands next
func Spare() {}

// Excused is referenced, so a suppression of this analyzer is stale.
func Excused() int {
	//lint:ignore fedlint/unused-exported nothing left here to excuse
	// want-above "stale lint:ignore"
	return 6
}
