package profile

// Test-only views into an ArenaStore's layout, for the external arena
// tests.

// Pages reports how many arena pages the store has allocated and how many
// of them hold no non-zero counter.
func (s *ArenaStore) Pages() (allocated, empty int) {
	count := func(p pagedSlots) {
		for _, pg := range p {
			if pg == nil {
				continue
			}
			allocated++
			if *pg == (page{}) {
				empty++
			}
		}
	}
	for f := range s.dense {
		count(s.dense[f])
		for _, a := range s.loops[f] {
			if a != nil {
				count(a.slots)
			}
		}
		for c := range s.calls[f] {
			if a := s.typeI[f][c]; a != nil {
				count(a.slots)
			}
			if a := s.typeII[f][c]; a != nil {
				count(a.slots)
			}
		}
	}
	return allocated, empty
}

// Overflow materializes only the counters held outside the dense arenas:
// the sparse Ball-Larus overlays and the four overflow maps.
func (s *ArenaStore) Overflow() *Counters {
	c := NewCounters(len(s.dense))
	for f, m := range s.sparse {
		for id, n := range m {
			c.BL[f][id] = n
		}
	}
	for k, n := range s.loopOv {
		c.Loop[k] = n
	}
	for k, n := range s.typeIOv {
		c.TypeI[k] = n
	}
	for k, n := range s.typeIIOv {
		c.TypeII[k] = n
	}
	for k, n := range s.callsOv {
		c.Calls[k] = n
	}
	return c
}
