package transport

import "distauction/internal/wire"

// UnackedDepth reports how many frames sent to peer still await their
// cumulative ack (external tests cannot see the window).
func (c *ResilientConn) UnackedDepth(peer wire.NodeID) int {
	p := c.peer(peer)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// LinkFloor is the control kind of a link floor, for tests that count them.
const LinkFloor = linkFloor
