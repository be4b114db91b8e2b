"""Graph partitioning: the modified MINCUT heuristic and Stoer–Wagner.

The paper derives its heuristic from Stoer & Wagner's simple min-cut
algorithm: seed the client partition with every class that cannot be
offloaded (native methods), then repeatedly move the node with the
greatest connectivity to the client partition, recording *every*
intermediate partitioning.  The policy layer then evaluates all of the
candidates and picks the one that best satisfies the policy — which may
not be the global minimum cut, but will, for example, actually free
enough memory.

The classic Stoer–Wagner global minimum cut is also implemented, both as
the ancestry of the heuristic and as an ablation baseline (it can return
a cut that frees almost nothing, which is precisely the paper's argument
for the modification).

Both algorithms select their next vertex through a lazy-deletion heap
rather than a linear scan, so one candidate chain costs
O((V + E) log V) instead of O(V^2 + E); connectivities only ever grow
while a vertex is selectable, so the freshest heap entry for a vertex is
always the largest and stale entries can simply be skipped on pop.

This module is the *reference* implementation: ``Partitioner`` runs the
flat-index CSR rewrite of the same heuristic (``core.flatgraph``) by
default and keeps this string-keyed kernel behind ``use_flat=False``.
The two must stay bit-identical — same candidate chains, statistics,
and float accumulation order — which
``tests/core/test_flatgraph_parity.py`` enforces on randomized graphs;
behavioural changes here must be mirrored there.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import PartitioningError
from .graph import ExecutionGraph, GraphDelta


class _MaxOrderStr:
    """Reverses string ordering so heapq's min-heap pops the max id.

    The heuristic breaks connectivity ties towards the *largest* node
    id (the historical ``max()`` scan compared ``(bytes, count, node)``
    tuples); wrapping the id keeps that exact tie-break under heapq.
    """

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "_MaxOrderStr") -> bool:
        return self.value > other.value


class _MoveLog:
    """Shared move history behind one chain of lazy candidates.

    ``seed`` is the initial client partition; ``order`` lists every
    initially-surrogate node in the order it was moved to the client,
    with the never-moved remainder appended at the end.  Candidate ``i``
    of the chain is then ``client = seed | order[:i]``,
    ``surrogate = order[i:]`` — O(V) storage for the whole chain instead
    of O(V^2) worth of per-candidate frozensets.
    """

    __slots__ = ("seed", "order")

    def __init__(self, seed: FrozenSet[str]) -> None:
        self.seed = seed
        self.order: List[str] = []


class CandidatePartition:
    """One intermediate partitioning produced by the heuristic.

    ``client_nodes`` stay on the device; ``surrogate_nodes`` would be
    offloaded.  The cut statistics are the historical interactions that
    would become remote under this placement.

    Node sets coming out of :func:`generate_candidates` are
    materialised lazily on first access (most candidates are only ever
    judged by their scalar cut statistics); explicitly constructed
    instances behave like the plain record they always were.
    """

    __slots__ = (
        "cut_count",
        "cut_bytes",
        "surrogate_memory",
        "surrogate_cpu",
        "client_cpu",
        "_client_nodes",
        "_surrogate_nodes",
        "_log",
        "_moves_applied",
    )

    def __init__(
        self,
        client_nodes: Iterable[str],
        surrogate_nodes: Iterable[str],
        cut_count: int,
        cut_bytes: int,
        surrogate_memory: int,
        surrogate_cpu: float,
        client_cpu: float,
    ) -> None:
        self._client_nodes: Optional[FrozenSet[str]] = frozenset(client_nodes)
        self._surrogate_nodes: Optional[FrozenSet[str]] = frozenset(
            surrogate_nodes
        )
        self._log: Optional[_MoveLog] = None
        self._moves_applied = 0
        self.cut_count = cut_count
        self.cut_bytes = cut_bytes
        self.surrogate_memory = surrogate_memory
        self.surrogate_cpu = surrogate_cpu
        self.client_cpu = client_cpu

    @classmethod
    def _deferred(
        cls,
        log: _MoveLog,
        moves_applied: int,
        cut_count: int,
        cut_bytes: int,
        surrogate_memory: int,
        surrogate_cpu: float,
        client_cpu: float,
    ) -> "CandidatePartition":
        self = cls.__new__(cls)
        self._client_nodes = None
        self._surrogate_nodes = None
        self._log = log
        self._moves_applied = moves_applied
        self.cut_count = cut_count
        self.cut_bytes = cut_bytes
        self.surrogate_memory = surrogate_memory
        self.surrogate_cpu = surrogate_cpu
        self.client_cpu = client_cpu
        return self

    @property
    def client_nodes(self) -> FrozenSet[str]:
        nodes = self._client_nodes
        if nodes is None:
            log = self._log
            nodes = log.seed.union(log.order[: self._moves_applied])
            self._client_nodes = nodes
        return nodes

    @property
    def surrogate_nodes(self) -> FrozenSet[str]:
        nodes = self._surrogate_nodes
        if nodes is None:
            nodes = frozenset(self._log.order[self._moves_applied:])
            self._surrogate_nodes = nodes
        return nodes

    @property
    def offloads_anything(self) -> bool:
        if self._surrogate_nodes is not None:
            return bool(self._surrogate_nodes)
        return len(self._log.order) > self._moves_applied

    def _fields(self) -> tuple:
        return (
            self.client_nodes,
            self.surrogate_nodes,
            self.cut_count,
            self.cut_bytes,
            self.surrogate_memory,
            self.surrogate_cpu,
            self.client_cpu,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidatePartition):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            "CandidatePartition("
            f"client_nodes={set(self.client_nodes)!r}, "
            f"surrogate_nodes={set(self.surrogate_nodes)!r}, "
            f"cut_count={self.cut_count}, cut_bytes={self.cut_bytes}, "
            f"surrogate_memory={self.surrogate_memory}, "
            f"surrogate_cpu={self.surrogate_cpu}, "
            f"client_cpu={self.client_cpu})"
        )


class WarmStartState:
    """Persisted outcome of one candidate-generation run.

    A warm start replays the previous run's move order against the
    mutated graph: candidate statistics are patched through difference
    arrays built from the dirty edges/nodes alone, and the greedy
    selection order is *re-validated* — at every step the previously
    selected node must still dominate every node whose connectivity
    could have changed.  Edge weights only grow through
    ``record_interaction``, so nodes untouched by the delta keep their
    old connectivity and cannot newly overtake a selection; only the
    perturbed nodes (endpoints of dirty edges) need checking.  If any
    check fails — the move order would differ, the node set changed,
    the seed changed, or an edge shrank — the warm path returns nothing
    and the caller falls back to a full cold run.  A successful warm
    run therefore emits *exactly* the candidate chain the cold run
    would (up to float addition order in the CPU-seconds fields).
    """

    __slots__ = (
        "ready",
        "last_run_warm",
        "seed",
        "order",
        "pos",
        "node_count",
        "sel_bytes",
        "sel_count",
        "cut_bytes",
        "cut_count",
        "surrogate_memory",
        "surrogate_cpu",
        "client_cpu",
        "edge_values",
        "node_values",
    )

    def __init__(self) -> None:
        self.ready = False
        #: True when the most recent generate_candidates call with this
        #: state was served by the warm path (for session statistics).
        self.last_run_warm = False
        self.seed: FrozenSet[str] = frozenset()
        #: Move order; ``order[j]`` joined the client partition at
        #: candidate index ``j + 1`` (the final entry never moved).
        self.order: List[str] = []
        #: node -> candidate index from which it is on the client side
        #: (0 for seed members, ``len(order)`` for the never-moved tail).
        self.pos: Dict[str, int] = {}
        self.node_count = 0
        #: Connectivity (bytes, count) of the selected node at each of
        #: the ``len(order) - 1`` selection steps, for re-validation.
        self.sel_bytes: List[int] = []
        self.sel_count: List[int] = []
        # Per-candidate statistics arrays (length == len(order)).
        self.cut_bytes: List[int] = []
        self.cut_count: List[int] = []
        self.surrogate_memory: List[int] = []
        self.surrogate_cpu: List[float] = []
        self.client_cpu: List[float] = []
        #: Last-seen raw values, for computing deltas of dirty entries.
        self.edge_values: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self.node_values: Dict[str, Tuple[int, float]] = {}


def _seed_nodes(graph: ExecutionGraph, pinned: Iterable[str]) -> Set[str]:
    """Client-partition seed: pinned nodes present in the graph.

    If nothing is pinned (an application with no native classes), seed
    with the most-connected node, mirroring Stoer–Wagner's arbitrary
    start vertex but made deterministic.
    """
    nodes = set(graph.nodes())
    seed = {node for node in pinned if node in nodes}
    if seed:
        return seed
    if not nodes:
        raise PartitioningError("cannot partition an empty execution graph")
    best = max(
        nodes,
        key=lambda n: (graph.connectivity(n, nodes - {n}), n),
    )
    return {best}


def generate_candidates(
    graph: ExecutionGraph,
    pinned: Iterable[str],
    warm: Optional[WarmStartState] = None,
    delta: Optional[GraphDelta] = None,
) -> List[CandidatePartition]:
    """Run the modified MINCUT heuristic, returning all candidates.

    Candidates are ordered from the largest offload (everything that is
    not pinned) down to offloading a single node.  The number of
    candidates is strictly smaller than the number of nodes, as the
    paper notes.

    The most-connected surrogate node is drawn from a lazy-deletion
    heap keyed on ``(conn_bytes, conn_count, node)``: connectivity to
    the client only grows, so each relaxation pushes a fresh entry and
    pops discard entries that no longer match the live connectivity.

    With ``warm`` (a :class:`WarmStartState`) the run records enough of
    its internals to warm-start the next call; passing the previous
    call's ``warm`` together with the graph ``delta`` since then
    attempts the incremental path first (see :class:`WarmStartState`)
    and silently falls back to the cold run when the delta invalidates
    the previous move order.
    """
    pinned = list(pinned)
    if warm is not None:
        warm.last_run_warm = False
        if delta is not None and warm.ready:
            candidates = _warm_generate(graph, pinned, warm, delta)
            if candidates is not None:
                warm.last_run_warm = True
                return candidates
    client: Set[str] = _seed_nodes(graph, pinned)
    surrogate: Set[str] = set(graph.nodes()) - client
    if not surrogate:
        if warm is not None:
            warm.ready = False
        return []

    total_memory = graph.total_memory()
    total_cpu = graph.total_cpu()

    # Incrementally maintained cut statistics and per-node connectivity
    # (bytes and counts towards the client partition).
    cut_count, cut_bytes = graph.cut(frozenset(client))
    conn_bytes: Dict[str, int] = {}
    conn_count: Dict[str, int] = {}
    for node in surrogate:  # detlint: allow - per-node int sums, keyed
        nbytes = ncount = 0
        for neighbor, edge in graph.adjacent_edges(node):
            if neighbor in client:
                nbytes += edge.bytes
                ncount += edge.count
        conn_bytes[node] = nbytes
        conn_count[node] = ncount

    heap: List[Tuple[int, int, _MaxOrderStr]] = [
        (-conn_bytes[node], -conn_count[node], _MaxOrderStr(node))
        for node in surrogate  # detlint: allow - heapified, unique keys
    ]
    heapq.heapify(heap)

    # Seed sums in graph insertion order, as the flat kernel takes them:
    # a float sum in set order would depend on string hashing.
    seed_stats = [stats for node, stats in graph.node_items()
                  if node in client]
    client_memory = sum(stats.memory_bytes for stats in seed_stats)
    client_cpu = sum(stats.cpu_seconds for stats in seed_stats)

    log = _MoveLog(frozenset(client))
    candidates: List[CandidatePartition] = []
    state = warm if warm is not None else None
    if state is not None:
        state.ready = False
        state.seed = log.seed
        state.order = log.order
        state.sel_bytes = []
        state.sel_count = []
        state.cut_bytes = []
        state.cut_count = []
        state.surrogate_memory = []
        state.surrogate_cpu = []
        state.client_cpu = []

    def record() -> None:
        candidates.append(
            CandidatePartition._deferred(
                log=log,
                moves_applied=len(log.order),
                cut_count=cut_count,
                cut_bytes=cut_bytes,
                surrogate_memory=total_memory - client_memory,
                surrogate_cpu=total_cpu - client_cpu,
                client_cpu=client_cpu,
            )
        )
        if state is not None:
            state.cut_bytes.append(cut_bytes)
            state.cut_count.append(cut_count)
            state.surrogate_memory.append(total_memory - client_memory)
            state.surrogate_cpu.append(total_cpu - client_cpu)
            state.client_cpu.append(client_cpu)

    record()
    remaining = len(surrogate)
    while remaining > 1:
        # Most tightly coupled to the client partition; deterministic
        # tie-break on (count, node id).  Stale heap entries (pushed
        # before a later relaxation raised the node's connectivity, or
        # for already-moved nodes) are skipped.
        while True:
            neg_bytes, neg_count, wrapped = heapq.heappop(heap)
            moved = wrapped.value
            current = conn_bytes.get(moved)
            if (
                current is not None
                and current == -neg_bytes
                and conn_count[moved] == -neg_count
            ):
                break
        remaining -= 1
        if state is not None:
            state.sel_bytes.append(-neg_bytes)
            state.sel_count.append(-neg_count)
        stats = graph.node(moved)
        client_memory += stats.memory_bytes
        client_cpu += stats.cpu_seconds
        # The moved node's client-side edges leave the cut; its edges to
        # the remaining surrogate nodes join the cut.
        cut_bytes -= conn_bytes.pop(moved)
        cut_count -= conn_count.pop(moved)
        for neighbor, edge in graph.adjacent_edges(moved):
            neighbor_bytes = conn_bytes.get(neighbor)
            if neighbor_bytes is None:
                continue
            cut_bytes += edge.bytes
            cut_count += edge.count
            neighbor_bytes += edge.bytes
            neighbor_count = conn_count[neighbor] + edge.count
            conn_bytes[neighbor] = neighbor_bytes
            conn_count[neighbor] = neighbor_count
            heapq.heappush(
                heap,
                (-neighbor_bytes, -neighbor_count, _MaxOrderStr(neighbor)),
            )
        log.order.append(moved)
        record()
    # The never-moved remainder closes the move order so lazy candidates
    # can slice their surrogate side out of it.
    log.order.extend(conn_bytes)
    if state is not None:
        state.pos = {node: 0 for node in log.seed}
        for index, node in enumerate(log.order):
            state.pos[node] = index + 1
        state.node_count = graph.node_count
        state.edge_values = {
            key: (edge.bytes, edge.count) for key, edge in graph.edges()
        }
        state.node_values = {
            node: (graph.node(node).memory_bytes, graph.node(node).cpu_seconds)
            for node in graph.nodes()
        }
        state.ready = len(log.order) >= 2
    return candidates


def _warm_generate(
    graph: ExecutionGraph,
    pinned: List[str],
    warm: WarmStartState,
    delta: GraphDelta,
) -> Optional[List[CandidatePartition]]:
    """Incremental candidate generation; ``None`` means fall back cold.

    Works in three phases: (1) compute per-edge/per-node deltas against
    the previous run's recorded values, bailing out on anything the
    incremental model cannot express (new nodes, shrinking edges, a
    different seed); (2) re-validate the previous greedy move order,
    tracking the exact new connectivity timelines of the perturbed
    nodes only; (3) patch the per-candidate statistics through
    difference arrays over the move positions.  Total cost is
    O(D log D + k) for a dirty region of size D and k candidates.
    """
    k = len(warm.order)
    if k < 2 or graph.node_count != warm.node_count:
        return None
    seed = {node for node in pinned if graph.has_node(node)}
    if not seed or frozenset(seed) != warm.seed:
        return None
    pos = warm.pos

    # -- phase 1: deltas ---------------------------------------------------------
    edge_deltas: List[Tuple[str, str, int, int]] = []
    for key in delta.edges:
        a, b = key
        if a not in pos or b not in pos:
            return None
        edge = graph.edge(a, b)
        if edge is None:
            return None
        old_bytes, old_count = warm.edge_values.get(key, (0, 0))
        dbytes = edge.bytes - old_bytes
        dcount = edge.count - old_count
        if dbytes < 0 or dcount < 0:
            # A shrinking edge breaks the only-grows argument that lets
            # unperturbed nodes keep their recorded connectivities.
            return None
        if dbytes or dcount:
            edge_deltas.append((a, b, dbytes, dcount))
    node_deltas: List[Tuple[str, int, float]] = []
    for node in delta.nodes:
        if node not in pos:
            return None
        stats = graph.node(node)
        old_memory, old_cpu = warm.node_values.get(node, (0, 0.0))
        dmemory = stats.memory_bytes - old_memory
        dcpu = stats.cpu_seconds - old_cpu
        if dmemory or dcpu:
            node_deltas.append((node, dmemory, dcpu))

    # -- phase 2: re-validate the move order -------------------------------------
    # Perturbed nodes are the non-seed endpoints of changed edges; all
    # other nodes keep exactly their recorded connectivity at every
    # step, and since edges only grew they cannot newly overtake the
    # recorded selections.  For each perturbed node rebuild its exact
    # connectivity timeline from the new graph: a base value against
    # the seed plus one event per neighbour that joins the client side
    # before the perturbed node itself would move.
    perturbed: Set[str] = set()
    for a, b, _, _ in edge_deltas:
        if pos[a] > 0:
            perturbed.add(a)
        if pos[b] > 0:
            perturbed.add(b)
    cur_bytes: Dict[str, int] = {}
    cur_count: Dict[str, int] = {}
    pending: Dict[int, List[Tuple[str, int, int]]] = {}
    # Order-free: per-node int sums, and pending entries only feed int
    # sums and pushes onto a heap with unique keys.
    for node in perturbed:  # detlint: allow - see above
        node_pos = pos[node]
        base_bytes = base_count = 0
        for neighbor, edge in graph.adjacent_edges(node):
            neighbor_pos = pos.get(neighbor)
            if neighbor_pos is None:
                return None
            if neighbor_pos == 0:
                base_bytes += edge.bytes
                base_count += edge.count
            elif neighbor_pos < node_pos:
                pending.setdefault(neighbor_pos, []).append(
                    (node, edge.bytes, edge.count)
                )
        cur_bytes[node] = base_bytes
        cur_count[node] = base_count
    heap: List[Tuple[int, int, _MaxOrderStr]] = [
        (-cur_bytes[node], -cur_count[node], _MaxOrderStr(node))
        for node in perturbed  # detlint: allow - heapified, unique keys
    ]
    heapq.heapify(heap)

    new_sel_bytes = list(warm.sel_bytes)
    new_sel_count = list(warm.sel_count)
    for step in range(k - 1):
        if step:
            for node, ebytes, ecount in pending.pop(step, ()):
                cur_bytes[node] += ebytes
                cur_count[node] += ecount
                heapq.heappush(
                    heap,
                    (-cur_bytes[node], -cur_count[node], _MaxOrderStr(node)),
                )
        moved = warm.order[step]
        if moved in perturbed:
            moved_bytes = cur_bytes[moved]
            moved_count = cur_count[moved]
            new_sel_bytes[step] = moved_bytes
            new_sel_count[step] = moved_count
        else:
            moved_bytes = warm.sel_bytes[step]
            moved_count = warm.sel_count[step]
        # Drop heap entries that are stale, already on the client side,
        # or the selectee itself (never a competitor again), then check
        # whether the best remaining perturbed node would now win.
        while heap:
            neg_bytes, neg_count, wrapped = heap[0]
            node = wrapped.value
            if (
                pos[node] <= step
                or node == moved
                or cur_bytes[node] != -neg_bytes
                or cur_count[node] != -neg_count
            ):
                heapq.heappop(heap)
                continue
            if (-neg_bytes, -neg_count, node) > (
                moved_bytes, moved_count, moved
            ):
                return None
            break

    # -- phase 3: patch candidate statistics -------------------------------------
    diff_cut_bytes = [0] * (k + 1)
    diff_cut_count = [0] * (k + 1)
    for a, b, dbytes, dcount in edge_deltas:
        low = pos[a]
        high = pos[b]
        if low > high:
            low, high = high, low
        high = min(high, k)
        if low < high:
            diff_cut_bytes[low] += dbytes
            diff_cut_bytes[high] -= dbytes
            diff_cut_count[low] += dcount
            diff_cut_count[high] -= dcount
    diff_memory = [0] * (k + 1)
    diff_surrogate_cpu = [0.0] * (k + 1)
    diff_client_cpu = [0.0] * (k + 1)
    for node, dmemory, dcpu in node_deltas:
        node_pos = pos[node]
        surrogate_until = min(node_pos, k)
        if surrogate_until > 0:
            diff_memory[0] += dmemory
            diff_memory[surrogate_until] -= dmemory
            diff_surrogate_cpu[0] += dcpu
            diff_surrogate_cpu[surrogate_until] -= dcpu
        if node_pos < k:
            diff_client_cpu[node_pos] += dcpu
            diff_client_cpu[k] -= dcpu

    cut_bytes = list(warm.cut_bytes)
    cut_count = list(warm.cut_count)
    surrogate_memory = list(warm.surrogate_memory)
    surrogate_cpu = list(warm.surrogate_cpu)
    client_cpu = list(warm.client_cpu)
    running_cb = running_cc = running_mem = 0
    running_scpu = running_ccpu = 0.0
    for index in range(k):
        running_cb += diff_cut_bytes[index]
        running_cc += diff_cut_count[index]
        running_mem += diff_memory[index]
        running_scpu += diff_surrogate_cpu[index]
        running_ccpu += diff_client_cpu[index]
        if running_cb:
            cut_bytes[index] += running_cb
        if running_cc:
            cut_count[index] += running_cc
        if running_mem:
            surrogate_memory[index] += running_mem
        if running_scpu:
            surrogate_cpu[index] += running_scpu
        if running_ccpu:
            client_cpu[index] += running_ccpu

    log = _MoveLog(warm.seed)
    log.order = warm.order
    candidates = [
        CandidatePartition._deferred(
            log=log,
            moves_applied=index,
            cut_count=cut_count[index],
            cut_bytes=cut_bytes[index],
            surrogate_memory=surrogate_memory[index],
            surrogate_cpu=surrogate_cpu[index],
            client_cpu=client_cpu[index],
        )
        for index in range(k)
    ]

    # Commit the patched state so the next epoch warm-starts from here.
    warm.sel_bytes = new_sel_bytes
    warm.sel_count = new_sel_count
    warm.cut_bytes = cut_bytes
    warm.cut_count = cut_count
    warm.surrogate_memory = surrogate_memory
    warm.surrogate_cpu = surrogate_cpu
    warm.client_cpu = client_cpu
    for a, b, _, _ in edge_deltas:
        edge = graph.edge(a, b)
        warm.edge_values[(a, b) if a <= b else (b, a)] = (
            edge.bytes, edge.count
        )
    for node, _, _ in node_deltas:
        stats = graph.node(node)
        warm.node_values[node] = (stats.memory_bytes, stats.cpu_seconds)
    return candidates


def min_bandwidth_candidate(
    candidates: List[CandidatePartition],
) -> Optional[CandidatePartition]:
    """The candidate with the globally smallest cut bytes (no constraints)."""
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.cut_bytes, c.cut_count))


def stoer_wagner(graph: ExecutionGraph) -> Tuple[int, FrozenSet[str]]:
    """Classic Stoer–Wagner global minimum cut (weight = edge bytes).

    Returns ``(cut_bytes, partition)`` where ``partition`` is one side of
    the minimum cut.  Used as an ablation baseline: the unmodified
    algorithm is free to return a cut that isolates a single node and
    frees almost no memory.

    Contractions are carried out on per-vertex adjacency maps, so each
    maximum-adjacency phase walks only real edges (heap-ordered) and a
    merge touches only the merged vertex's neighbors instead of every
    active vertex pair.
    """
    nodes = list(graph.nodes())
    if len(nodes) < 2:
        raise PartitioningError("minimum cut requires at least two nodes")

    # Contractible per-vertex weight maps (vertex -> neighbor -> bytes).
    adjacency: Dict[str, Dict[str, int]] = {n: {} for n in nodes}
    for (a, b), edge in graph.edges():
        adjacency[a][b] = edge.bytes
        adjacency[b][a] = edge.bytes

    groups: Dict[str, Set[str]] = {n: {n} for n in nodes}
    active = set(nodes)

    best_cut = None
    best_partition: FrozenSet[str] = frozenset()

    while len(active) > 1:
        # Minimum cut phase (maximum adjacency ordering), drawn from a
        # lazy-deletion heap with the historical (conn, node) tie-break.
        order = []
        # Order-free: conn is read by key, the heap keys are unique.
        conn: Dict[str, int] = {n: 0 for n in active}  # detlint: allow
        remaining = set(active)
        heap = [(0, _MaxOrderStr(n)) for n in active]  # detlint: allow
        heapq.heapify(heap)
        while remaining:
            while True:
                neg_conn, wrapped = heapq.heappop(heap)
                nxt = wrapped.value
                if nxt in remaining and conn[nxt] == -neg_conn:
                    break
            remaining.discard(nxt)
            order.append(nxt)
            for other, other_weight in adjacency[nxt].items():
                if other_weight and other in remaining:
                    connected = conn[other] + other_weight
                    conn[other] = connected
                    heapq.heappush(heap, (-connected, _MaxOrderStr(other)))
        last = order[-1]
        cut_of_phase = conn[last]
        if best_cut is None or cut_of_phase < best_cut:
            best_cut = cut_of_phase
            best_partition = frozenset(groups[last])
        # Merge the last two vertices of the ordering.
        merged_into = order[-2]
        groups[merged_into] |= groups[last]
        merged_adjacency = adjacency[merged_into]
        merged_adjacency.pop(last, None)
        for other, joining_weight in adjacency.pop(last).items():
            if other == merged_into:
                continue
            adjacency[other].pop(last, None)
            if joining_weight:
                combined = merged_adjacency.get(other, 0) + joining_weight
                merged_adjacency[other] = combined
                adjacency[other][merged_into] = combined
        active.discard(last)
    assert best_cut is not None
    return best_cut, best_partition
