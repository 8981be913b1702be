package pebble

import (
	"math/rand"
	"testing"

	"universalnet/internal/topology"
)

// Fault injection: every class of illegal mutation applied to a valid
// protocol must be rejected by Validate. This pins down the model rules of
// §3.1 operationally.

func buildValidProtocol(t *testing.T) *Protocol {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	guest, err := topology.RandomGuest(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.WrappedButterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildEmbeddingProtocol(guest, host, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	return pr
}

// clone deep-copies the protocol's step structure.
func clone(pr *Protocol) *Protocol {
	c := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T, Steps: make([][]Op, len(pr.Steps))}
	for i, step := range pr.Steps {
		c.Steps[i] = append([]Op(nil), step...)
	}
	return c
}

func findOp(pr *Protocol, kind OpKind) (step, idx int) {
	for si := range pr.Steps {
		for oi, op := range pr.Steps[si] {
			if op.Kind == kind {
				return si, oi
			}
		}
	}
	return -1, -1
}

func TestFaultDropReceive(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	si, oi := findOp(pr, Receive)
	if si < 0 {
		t.Skip("no receive ops")
	}
	pr.Steps[si] = append(pr.Steps[si][:oi], pr.Steps[si][oi+1:]...)
	if _, err := pr.Validate(); err == nil {
		t.Error("dropped receive not detected")
	}
}

func TestFaultDropSend(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	si, oi := findOp(pr, Send)
	if si < 0 {
		t.Skip("no send ops")
	}
	pr.Steps[si] = append(pr.Steps[si][:oi], pr.Steps[si][oi+1:]...)
	if _, err := pr.Validate(); err == nil {
		t.Error("dropped send not detected")
	}
}

func TestFaultDoubleOpOnProcessor(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	si, oi := findOp(pr, Generate)
	op := pr.Steps[si][oi]
	op.Pebble.P = (op.Pebble.P + 1) % pr.Guest.N()
	pr.Steps[si] = append(pr.Steps[si], op) // same processor, second op
	if _, err := pr.Validate(); err == nil {
		t.Error("two ops on one processor not detected")
	}
}

func TestFaultGenerateTooEarly(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	// Generate a time-3 pebble in host step 1 (predecessors of time 2
	// cannot exist anywhere yet).
	pr.Steps[0] = append([]Op{}, Op{Kind: Generate, Proc: pr.Host.N() - 1, Pebble: Type{P: 0, T: pr.T}})
	if _, err := pr.Validate(); err == nil {
		t.Error("premature generation not detected")
	}
}

func TestFaultSendUnheldPebble(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	// Find two adjacent hosts and inject a transfer of a never-created
	// pebble at step 0.
	var u, v int
	for _, e := range pr.Host.Edges() {
		u, v = e.U, e.V
		break
	}
	bad := Type{P: 0, T: pr.T} // final pebble cannot exist at step 1
	pr.Steps[0] = []Op{
		{Kind: Send, Proc: u, Pebble: bad, Peer: v},
		{Kind: Receive, Proc: v, Pebble: bad, Peer: u},
	}
	if _, err := pr.Validate(); err == nil {
		t.Error("send of unheld pebble not detected")
	}
}

func TestFaultRemoveFinalGeneration(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	// Remove every generation of P0's final pebble.
	target := Type{P: 0, T: pr.T}
	for si := range pr.Steps {
		var kept []Op
		for _, op := range pr.Steps[si] {
			if op.Kind == Generate && op.Pebble == target {
				continue
			}
			kept = append(kept, op)
		}
		pr.Steps[si] = kept
	}
	if _, err := pr.Validate(); err == nil {
		t.Error("missing final pebble not detected")
	}
}

func TestFaultSendAcrossNonEdge(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	// Find a non-adjacent host pair.
	var u, v int
	found := false
	for a := 0; a < pr.Host.N() && !found; a++ {
		for b := 0; b < pr.Host.N(); b++ {
			if a != b && !pr.Host.HasEdge(a, b) {
				u, v, found = a, b, true
				break
			}
		}
	}
	if !found {
		t.Skip("host is complete")
	}
	pb := Type{P: 0, T: 0}
	pr.Steps[0] = []Op{
		{Kind: Send, Proc: u, Pebble: pb, Peer: v},
		{Kind: Receive, Proc: v, Pebble: pb, Peer: u},
	}
	if _, err := pr.Validate(); err == nil {
		t.Error("send across non-edge not detected")
	}
}

func TestFaultReceiveWithoutSend(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	var e = pr.Host.Edges()[0]
	pr.Steps[0] = []Op{{Kind: Receive, Proc: e.V, Pebble: Type{P: 0, T: 0}, Peer: e.U}}
	if _, err := pr.Validate(); err == nil {
		t.Error("receive without send not detected")
	}
}

func TestFaultBadOpKind(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	pr.Steps[0] = append(pr.Steps[0], Op{Kind: OpKind(42), Proc: pr.Host.N() - 1})
	if _, err := pr.Validate(); err == nil {
		t.Error("unknown op kind not detected")
	}
}

func TestFaultProcOutOfRange(t *testing.T) {
	pr := clone(buildValidProtocol(t))
	pr.Steps[0] = append(pr.Steps[0], Op{Kind: Generate, Proc: 999, Pebble: Type{P: 0, T: 1}})
	if _, err := pr.Validate(); err == nil {
		t.Error("out-of-range processor not detected")
	}
}
