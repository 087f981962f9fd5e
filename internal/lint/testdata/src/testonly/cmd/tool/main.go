package main

import (
	"fmt"

	"testonly/internal/lib"
)

// shape is the main's own interface: lib.Square.Area is called through
// it, never by name.
type shape interface{ Area() float64 }

func main() {
	var s shape = lib.Square{Side: 2}
	fmt.Println(lib.UsedByMain(), s.Area(), lib.NewEngine().Run())
}
