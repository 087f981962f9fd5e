// Package lib is the testonly fixture's internal package: the one whose
// exports the analyzer judges.
package lib

// UsedByMain is called from a main.
func UsedByMain() int { return 1 }

// UsedByFacade is called from the root facade.
func UsedByFacade() int { return 2 }

// UsedBySecondModule is called only from the module nested under this
// one.
func UsedBySecondModule() int { return 3 }

// OnlyTests is called only from lib_test.go.
func OnlyTests() int { return 4 } // want `func OnlyTests is referenced only from tests or its own body`

// Recurse calls nobody but itself.
func Recurse(n int) int { // want `func Recurse is referenced only from tests or its own body`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

const TestOnlyConst = 5 // want `const TestOnlyConst`

var TestOnlyVar = 6 // want `var TestOnlyVar`

type TestOnlyType struct{} // want `type TestOnlyType`

// Lonely is named only by its own methods, which nothing calls.
type Lonely struct{} // want `type Lonely`

func (l Lonely) Self() Lonely { return l } // want `method Lonely.Self`

// Widget is named by the facade's alias, but no program calls its
// methods: an alias hands callers the method set, it does not use it.
type Widget struct{ inner }

func (w *Widget) Spin() int { return 7 } // want `method Widget.Spin`

// inner's Promoted reaches the facade's callers through Widget, and
// no program calls it either.
type inner struct{}

func (inner) Promoted() int { return 8 } // want `method inner.Promoted`

// Square is built by a main and its Area called through the main's
// interface; String satisfies fmt.Stringer.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) String() string { return "square" }

// Engine is built and run by a main, but only tests call Debug.
type Engine struct{}

func NewEngine() *Engine { return &Engine{} }

func (e *Engine) Run() int { return e.helper() }

func (e *Engine) helper() int { return 9 }

func (e *Engine) Debug() string { return "engine" } // want `method Engine.Debug`

// Oracle is a reference the tests compare Recurse against.
//
//lint:ignore testonly the oracle the tests compare Recurse against
func Oracle(n int) int { return 0 }

// Bare's directive gives no reason, so it suppresses nothing.
//
//lint:ignore testonly
func Bare() int { return 10 } // want `func Bare`
