package store

import "testing"

func TestCompact(t *testing.T) {
	db := smallDB(t, 9, []int{1, 2, 3, 4, 5})
	db.Remove(2)
	db.Remove(4)
	if got := db.Compact(); got != 2 {
		t.Fatalf("Compact removed %d, want 2", got)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	// Survivors re-indexed densely and findable.
	for i, want := range []int{1, 3, 5} {
		idx, ok := db.IndexOf(want)
		if !ok || idx != i {
			t.Errorf("user %d at index %d (%v), want %d", want, idx, ok, i)
		}
		if db.RowLen(i) == 0 || db.Norms[i] == 0 {
			t.Errorf("survivor %d lost its footprint", want)
		}
	}
	if _, ok := db.IndexOf(2); ok {
		t.Error("tombstoned user survived Compact")
	}
	// Idempotent.
	if got := db.Compact(); got != 0 {
		t.Errorf("second Compact removed %d", got)
	}
}
