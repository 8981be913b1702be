package pebble

import (
	"encoding/json"
	"fmt"
	"io"

	"universalnet/internal/graph"
)

// Wire format for protocols: graphs as edge lists, operations verbatim.
// Stable across versions of the in-memory representation, so recorded
// protocols can be archived and replayed (uninet pebble -save/-load).

type wireGraph struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

type wireOp struct {
	Kind   string `json:"kind"`
	Proc   int    `json:"proc"`
	P      int    `json:"p"`
	T      int    `json:"t"`
	Peer   int    `json:"peer,omitempty"`
	HasPtr bool   `json:"-"`
}

type wireProtocol struct {
	Guest wireGraph  `json:"guest"`
	Host  wireGraph  `json:"host"`
	T     int        `json:"t"`
	Steps [][]wireOp `json:"steps"`
}

func toWireGraph(g *graph.Graph) wireGraph {
	w := wireGraph{N: g.N()}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, [2]int{e.U, e.V})
	}
	return w
}

// fromWireGraph builds a graph whose vertex count checkDecodedSpec has
// already capped.
func fromWireGraph(w wireGraph) (*graph.Graph, error) {
	b := graph.NewBuilder(w.N)
	for _, e := range w.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

func opKindString(k OpKind) (string, error) {
	switch k {
	case Generate, Send, Receive:
		return k.String(), nil
	}
	return "", fmt.Errorf("pebble: unknown op kind %d", int(k))
}

func opKindFromString(s string) (OpKind, error) {
	switch s {
	case "generate":
		return Generate, nil
	case "send":
		return Send, nil
	case "receive":
		return Receive, nil
	}
	return 0, fmt.Errorf("pebble: unknown op kind %q", s)
}

// WriteJSON serializes the protocol.
func (pr *Protocol) WriteJSON(w io.Writer) error {
	wp := wireProtocol{
		Guest: toWireGraph(pr.Guest),
		Host:  toWireGraph(pr.Host),
		T:     pr.T,
		Steps: make([][]wireOp, len(pr.Steps)),
	}
	for si, step := range pr.Steps {
		for _, op := range step {
			ks, err := opKindString(op.Kind)
			if err != nil {
				return err
			}
			wp.Steps[si] = append(wp.Steps[si], wireOp{
				Kind: ks, Proc: op.Proc, P: op.Pebble.P, T: op.Pebble.T, Peer: op.Peer,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&wp)
}

// ReadJSON deserializes a protocol written by WriteJSON. The result is not
// validated; call Validate to replay and check it.
func ReadJSON(r io.Reader) (*Protocol, error) {
	var wp wireProtocol
	dec := json.NewDecoder(r)
	if err := dec.Decode(&wp); err != nil {
		return nil, fmt.Errorf("pebble: decode: %w", err)
	}
	// Checked before either graph is built: two graphs at the vertex cap
	// alone take 1.6 GB.
	if err := checkDecodedSpec(wp.Guest.N, wp.Host.N, wp.T); err != nil {
		return nil, err
	}
	guest, err := fromWireGraph(wp.Guest)
	if err != nil {
		return nil, fmt.Errorf("pebble: guest graph: %w", err)
	}
	host, err := fromWireGraph(wp.Host)
	if err != nil {
		return nil, fmt.Errorf("pebble: host graph: %w", err)
	}
	pr := &Protocol{Guest: guest, Host: host, T: wp.T, Steps: make([][]Op, len(wp.Steps))}
	for si, step := range wp.Steps {
		for _, wop := range step {
			kind, err := opKindFromString(wop.Kind)
			if err != nil {
				return nil, err
			}
			pr.Steps[si] = append(pr.Steps[si], Op{
				Kind: kind, Proc: wop.Proc,
				Pebble: Type{P: wop.P, T: wop.T}, Peer: wop.Peer,
			})
		}
	}
	return pr, nil
}
