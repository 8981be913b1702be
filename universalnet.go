// Package universalnet is the public facade of the universal-parallel-
// network laboratory: a reproduction of "Optimal Trade-Offs Between Size and
// Slowdown for Universal Parallel Networks" (Meyer auf der Heide, Storch,
// Wanka; SPAA 1995).
//
// The facade re-exports the pieces a downstream user needs:
//
//   - graphs and topologies (meshes, tori, multitori, butterflies, CCC,
//     shuffle-exchange, de Bruijn, random regular, the G₀ of Definition 3.9);
//   - the pebble-game simulation model of §3.1 (protocols, fragments,
//     representative/generator sets, frontier analysis);
//   - the Theorem 2.1 universal simulation by static embedding plus h–h
//     routing, with slowdown measurement and trace verification;
//   - the tree-cached constant-slowdown host of §1;
//   - the Theorem 3.1 counting machinery (k = Ω(log m)) with both the
//     paper's constants and unit-scale "toy" constants.
//
// The experiments that regenerate every measured table run through
// `uninet experiment` and `uninet report`, not through this facade. See
// README.md for a tour and EXPERIMENTS.md for paper-vs-measured results.
package universalnet

import (
	"universalnet/internal/core"
	"universalnet/internal/depgraph"
	"universalnet/internal/embedding"
	"universalnet/internal/expander"
	"universalnet/internal/graph"
	"universalnet/internal/pebble"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// Graph types.
type (
	// Graph is an immutable undirected simple graph (internal/graph).
	Graph = graph.Graph
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
	// Edge is an undirected edge with U < V.
	Edge = graph.Edge
)

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Topology constructors (selection; the internal/topology package has more).
var (
	// MeshOfTrees returns the N×N mesh of trees.
	MeshOfTrees = topology.MeshOfTrees
	// XTree returns the X-tree of the given depth.
	XTree = topology.XTree
	// Torus3D returns the L×L×L torus.
	Torus3D = topology.Torus3D
	// Kautz returns the Kautz graph K(b, d).
	Kautz = topology.Kautz
	// Mesh returns the √n×√n mesh.
	Mesh = topology.Mesh
	// Torus returns the √n×√n torus.
	Torus = topology.Torus
	// Multitorus returns the (a,n)-multitorus of Definition 3.8.
	Multitorus = topology.Multitorus
	// Butterfly returns the unwrapped butterfly of dimension d.
	Butterfly = topology.Butterfly
	// WrappedButterfly returns the wrapped butterfly of dimension d.
	WrappedButterfly = topology.WrappedButterfly
	// CubeConnectedCycles returns the CCC of dimension d.
	CubeConnectedCycles = topology.CubeConnectedCycles
	// ShuffleExchange returns the shuffle-exchange network on 2^d nodes.
	ShuffleExchange = topology.ShuffleExchange
	// DeBruijn returns the binary de Bruijn graph on 2^d nodes.
	DeBruijn = topology.DeBruijn
	// RandomRegular samples a random simple d-regular graph.
	RandomRegular = topology.RandomRegular
	// RandomGuest samples a connected c-regular guest from the class 𝒰'.
	RandomGuest = topology.RandomGuest
	// BuildG0 constructs the spreading subgraph G₀ of Definition 3.9.
	BuildG0 = topology.BuildG0
	// NextValidG0Size rounds n up to a valid G₀ size.
	NextValidG0Size = topology.NextValidG0Size
	// Multibutterfly returns the splitter-based butterfly variant of [17].
	Multibutterfly = topology.Multibutterfly
	// EnumerateRegularGraphs lists every labeled c-regular graph (small n).
	EnumerateRegularGraphs = topology.EnumerateRegularGraphs
)

// G0 is the fixed subgraph of Definition 3.9 with its torus partition.
type G0 = topology.G0

// Pebble game (§3.1).
type (
	// PebbleType identifies a pebble (P_i, t).
	PebbleType = pebble.Type
	// PebbleOp is one host operation (generate, send, receive).
	PebbleOp = pebble.Op
	// Protocol is a recorded simulation protocol S.
	Protocol = pebble.Protocol
	// ProtocolState is the replayed state of a protocol (representatives,
	// generators, weights, frontier).
	ProtocolState = pebble.State
	// Fragment is the (ℬ, ℬ', 𝒟) triple of Definition 3.2.
	Fragment = pebble.Fragment
)

var (
	// BuildEmbeddingProtocol constructs the Theorem 2.1-style protocol for
	// a guest on a host with assignment f (nil = balanced).
	BuildEmbeddingProtocol = pebble.BuildEmbeddingProtocol
	// BuildPipelinedProtocol is the pipelined-schedule variant.
	BuildPipelinedProtocol = pebble.BuildPipelinedProtocol
	// RandomPebbleProtocol generates a random legal protocol (fuzzing and
	// analysis-machinery testing).
	RandomPebbleProtocol = pebble.RandomProtocol
	// StatefulReplay executes a protocol with real configurations attached
	// to the pebbles, returning the carried final states.
	StatefulReplay = pebble.StatefulReplay
	// VerifyCarries proves end to end that a protocol simulates the
	// computation: validate, replay with states, compare to direct run.
	VerifyCarries = pebble.VerifyCarries
	// MinimizeProtocol drops no-op transfers and duplicate generations,
	// compacting the protocol (never lengthens it; semantics preserved).
	MinimizeProtocol = pebble.MinimizeProtocol
)

// Streaming protocol pipeline (DESIGN.md §7): builders emit steps into a
// StepSink, validators consume a StepSource, and the protocol never needs to
// be materialized — the path that takes validation to n = 10⁶ guests.
type (
	// StepSource yields protocol steps one host step at a time.
	StepSource = pebble.StepSource
	// StepSink receives protocol steps as they are produced.
	StepSink = pebble.StepSink
	// ProtocolSpec carries the (guest, host, T) frame of a step stream.
	ProtocolSpec = pebble.Spec
	// ChunkedLog is the spill-able varint-encoded protocol archive.
	ChunkedLog = pebble.ChunkedLog
	// ChunkedLogOptions tunes a ChunkedLog's chunk size and memory budget.
	ChunkedLogOptions = pebble.ChunkedLogOptions
	// StreamRunConfig tunes RunStreamingEmbedding.
	StreamRunConfig = universal.StreamRunConfig
	// StreamRunReport summarizes one streaming build+validate run.
	StreamRunReport = universal.StreamRunReport
)

var (
	// ValidateSharded checks a step stream against the pebble-game rules with
	// possession-bitset shards, using memory independent of op count.
	ValidateSharded = pebble.ValidateSharded
	// RunStreamingEmbedding runs builder and sharded validator as a
	// concurrent pipeline over a bounded step pipe.
	RunStreamingEmbedding = universal.RunStreamingEmbedding
	// NewStepPipe creates the bounded builder→validator step channel.
	NewStepPipe = pebble.NewPipe
	// NewChunkedLog creates a chunked protocol archive with a memory budget.
	NewChunkedLog = pebble.NewChunkedLog
	// WriteProtocolBinary writes a step stream in the compact binary format.
	WriteProtocolBinary = pebble.WriteBinary
	// ReadProtocolBinary reads a binary protocol back into materialized form.
	ReadProtocolBinary = pebble.ReadBinary
)

// Dependency graphs (Definition 3.7) and trees (Lemma 3.10).
type (
	// DepNode is a vertex (P, t) of Γ_G.
	DepNode = depgraph.Node
	// DepTree is a dependency tree inside Γ_G.
	DepTree = depgraph.Tree
)

var (
	// BuildDependencyTree builds the Lemma 3.10 tree for a block vertex.
	BuildDependencyTree = depgraph.BuildDependencyTree
	// TreeDepth returns the uniform depth D(p) of the trees for block side p.
	TreeDepth = depgraph.TreeDepth
)

// Routing substrate (§2).
type (
	// RoutingPair is a single packet demand.
	RoutingPair = routing.Pair
	// RoutingProblem is an h–h routing problem.
	RoutingProblem = routing.Problem
	// Router routes problems on graphs.
	Router = routing.Router
	// GreedyRouter is the generic shortest-path router.
	GreedyRouter = routing.GreedyRouter
	// ValiantRouter routes via random intermediates.
	ValiantRouter = routing.ValiantRouter
)

var (
	// DecomposeHRelation splits an h–h relation into ≤ h permutations.
	DecomposeHRelation = routing.DecomposeHRelation
	// OfflinePermutationSteps routes a permutation offline through a Beneš
	// network in 2d−1 steps.
	OfflinePermutationSteps = routing.OfflinePermutationSteps
	// RoutingLowerBound returns the distance/work lower bound on steps.
	RoutingLowerBound = routing.LowerBoundSteps
)

// Computations (guest workloads).
type (
	// Computation couples a guest with an initial state and transition.
	Computation = sim.Computation
	// Trace records a full execution.
	Trace = sim.Trace
	// State is one processor configuration.
	State = sim.State
)

var (
	// MixMod is the canonical correctness workload.
	MixMod = sim.MixMod
	// Broadcast floods a marker from a source.
	Broadcast = sim.Broadcast
)

// Universal simulation (Theorem 2.1) and hosts.
type (
	// Host bundles a host graph with its router.
	Host = universal.Host
	// EmbeddingSimulator simulates guests on hosts via static embedding.
	EmbeddingSimulator = universal.EmbeddingSimulator
	// RunReport summarizes a simulated execution.
	RunReport = universal.RunReport
	// TreeCachedHost is the 2^{O(t)}·n constant-slowdown host.
	TreeCachedHost = universal.TreeCachedHost
)

// ObliviousPattern fixes a complete-network communication schedule (§2).
type ObliviousPattern = universal.ObliviousPattern

var (
	// RandomObliviousPattern draws T random permutation rounds.
	RandomObliviousPattern = universal.RandomObliviousPattern
	// DirectObliviousRun executes the complete-network computation directly.
	DirectObliviousRun = universal.DirectObliviousRun
	// ButterflyHost returns the wrapped-butterfly host of dimension d.
	ButterflyHost = universal.ButterflyHost
	// TorusHost returns the torus host of size m.
	TorusHost = universal.TorusHost
	// ExpanderHost returns a random-regular expander host.
	ExpanderHost = universal.ExpanderHost
	// BuildTreeCachedHost builds the constant-slowdown host for depth-t runs.
	BuildTreeCachedHost = universal.BuildTreeCachedHost
	// NewBenesHost builds the wrapped-Beneš host with deterministic offline
	// routing — the Theorem 2.1 proof's own construction.
	NewBenesHost = universal.NewBenesHost
	// BuildBenesProtocol emits the offline construction as a validated
	// pebble protocol (Waksman paths as Send/Receive schedules).
	BuildBenesProtocol = universal.BuildBenesProtocol
	// PlaceReplicas assigns r random distinct replicas per guest.
	PlaceReplicas = universal.PlaceReplicas
)

// BenesHost is the wrapped Beneš host of Theorem 2.1's proof.
type BenesHost = universal.BenesHost

// RoundedTreeHost is the tree-cache host with inter-round refresh — the
// measured (negative) probe at the middle of the §1 trade-off.
type RoundedTreeHost = universal.RoundedTreeHost

// BuildRoundedTreeHost builds the rounded tree-cache host.
var BuildRoundedTreeHost = universal.BuildRoundedTreeHost

// Lower bound engine (Theorem 3.1).
type (
	// Params are the constants of Section 3.
	Params = core.Params
	// TradeoffRow is one row of the size/slowdown trade-off table.
	TradeoffRow = core.TradeoffRow
)

var (
	// ToyParams returns unit-scale constants for shape visualization.
	ToyParams = core.ToyParams
	// UpperBoundSlowdown is the Theorem 2.1 form ⌈n/m⌉·log m.
	UpperBoundSlowdown = core.UpperBoundSlowdown
	// CountRegularGraphsExact counts labeled c-regular graphs exactly
	// (small n), grounding the |𝒰'| estimates.
	CountRegularGraphsExact = core.CountRegularGraphsExact
)

// PaperParams returns the paper's constants (c=16, q=384, r=3472+384·log d).
func PaperParams() Params { return core.Params{}.Defaults() }

// Expansion testing.
type (
	// ExpansionCertificate records an (α,β) certification.
	ExpansionCertificate = expander.Certificate
)

var (
	// CertifyExpansion runs sampled and spectral expansion certification.
	CertifyExpansion = expander.Certify
	// SpectralGap estimates λ₂ of the normalized adjacency matrix.
	SpectralGap = expander.SpectralGap
	// ExactConductance computes the edge expansion h(G) exactly (small n).
	ExactConductance = expander.ExactConductance
	// CheegerBounds returns the spectral sandwich for h(G).
	CheegerBounds = expander.CheegerBounds
	// BestBalancedCut returns the smallest of several explicit balanced
	// cuts — an upper bound on the bisection width.
	BestBalancedCut = expander.BestBalancedCutUpperBound
)

// Static embeddings (the §1 contrast to dynamic simulations).
type StaticEmbedding = embedding.Embedding

var (
	// NewEmbedding builds an embedding from a placement, routing guest
	// edges along shortest host paths.
	NewEmbedding = embedding.New
	// GreedyEmbedding builds a locality-seeking embedding.
	GreedyEmbedding = embedding.Greedy
	// RandomEmbedding builds a balanced random embedding.
	RandomEmbedding = embedding.Random
)
