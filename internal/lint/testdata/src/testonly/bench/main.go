// Command bench is a second module nested under the fixture, as the
// benchmark ledger is under the repository: its references count.
package main

import (
	"fmt"

	"testonly/internal/lib"
)

func main() { fmt.Println(lib.UsedBySecondModule()) }
