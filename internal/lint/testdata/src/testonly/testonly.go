// Package testonly is the root facade of the testonly fixture module:
// what it aliases or calls is reached from outside internal/.
package testonly

import "testonly/internal/lib"

// Widget names lib.Widget; its methods count only where a program
// calls them.
type Widget = lib.Widget

// Open is reached by the facade's callers, and reaches lib.UsedByFacade.
func Open() int { return lib.UsedByFacade() }
