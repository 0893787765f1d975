package packet

import "testing"

func TestPacketIsValue(t *testing.T) {
	// Network elements copy packets freely; mutating a copy must not leak.
	p := Packet{Seq: 0, Size: 1500}
	q := p
	q.ECN = true
	q.Retx = true
	if p.ECN || p.Retx {
		t.Error("mutating a copy changed the original")
	}
}
