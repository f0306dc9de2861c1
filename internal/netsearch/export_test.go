package netsearch

// isBroken reports whether a transport fault closed the client's
// connection and no operation has redialed since.
func (c *Client) isBroken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}
