package market

// DrainSends waits until the mux's coalescer has shipped everything its
// lanes queued (transport.Coalescer.Drain), for tests that assert on what
// the receiver got.
func (m *Mux) DrainSends() { m.co.Drain() }
