package flips

import _ "unsafe" // go:linkname

// poisonFreed is internal/fl's test-only ownership switch: while set, every
// update vector is NaN-filled as it returns to the engine's free list, so a
// vector recycled while anything still reads it changes the run. It is
// reached by name because it is not part of fl's API, and it is
// process-wide: a test that sets it must not run in parallel, and must clear
// it when it ends.
//
//go:linkname poisonFreed flips/internal/fl.poisonFreed
var poisonFreed bool
