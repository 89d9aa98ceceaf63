// Package other references lib only from its tests.
package other

func two() int { return 2 }
