package fl

import "testing"

// PoisonFreed makes every update vector returning to the engine's free list
// NaN-filled until t ends. Tests that call it must not run in parallel: the
// switch is process-wide.
func PoisonFreed(t testing.TB) {
	poisonFreed = true
	t.Cleanup(func() { poisonFreed = false })
}
