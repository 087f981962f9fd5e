package lib

import "testing"

func TestLib(t *testing.T) {
	_ = OnlyTests() + Recurse(3) + TestOnlyConst + TestOnlyVar + Oracle(3) + Bare()
	_ = TestOnlyType{}
	_ = Lonely{}.Self()
	_ = NewEngine().Debug()
}
