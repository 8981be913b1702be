package graph

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonGraph is the wire format: vertex count + canonical edge list.
type jsonGraph struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// WriteJSON serializes the graph as {"n": ..., "edges": [[u,v], ...]}.
func (g *Graph) WriteJSON(w io.Writer) error {
	jg := jsonGraph{N: g.N()}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, [2]int{e.U, e.V})
	}
	return json.NewEncoder(w).Encode(&jg)
}

// maxVertices is the largest vertex count a decoder accepts, 1<<24: above
// the 10⁷ vertices of the largest out-of-core run planned. Building a
// decoded graph allocates one row offset per vertex however few edges it
// read (128 MiB at the cap), so a count read from a short header must be
// capped or it could exhaust memory. Raise the cap with the run that needs
// it.
const maxVertices = 1 << 24

// CheckVertexCount returns an error unless 0 ≤ n ≤ 1<<24. Every graph
// decoder checks the vertex count it read with it before allocating.
func CheckVertexCount(n int) error {
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > maxVertices {
		return fmt.Errorf("graph: vertex count %d above the decoder cap %d", n, maxVertices)
	}
	return nil
}

// ReadJSON deserializes a graph written by WriteJSON, validating edges.
func ReadJSON(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	if err := CheckVertexCount(jg.N); err != nil {
		return nil, err
	}
	b := NewBuilder(jg.N)
	for _, e := range jg.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
