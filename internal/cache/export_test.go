package cache

// BuildLines builds the cache's lines up front, the way New did before
// they were allocated on first fill.
func (c *Cache) BuildLines() {
	if !c.LinesBuilt() {
		c.buildLines()
	}
}

// LinesBuilt reports whether the cache's lines exist.
func (c *Cache) LinesBuilt() bool { return len(c.sets[0]) > 0 }
