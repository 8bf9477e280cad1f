package rank

// Fills reports the packing-entry fills (longest-path DP runs) of the
// context's current binding.
func (c *Ctx) Fills() int { return c.fills }
