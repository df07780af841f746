package run

// Test-only views of the one-shot slot.

// SlotHeld reports whether the one-shot slot holds a Scratch.
func SlotHeld() bool {
	lastScratch.Lock()
	defer lastScratch.Unlock()
	return lastScratch.p.Value() != nil
}

// EmptySlot empties the one-shot slot.
func EmptySlot() { borrowScratch() }
