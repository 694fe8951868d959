"""Vectorized backend: array-native kernels for the engine's hot paths.

The per-component frontier made the per-answer sweep+frontier work
component-local, but every kernel is still a Python loop over dict-based
structures.  This module re-implements the three hot paths as *batched
array operations* over a flat integer encoding of the labeling order:

* **bulk deduce/sweep** — pairs live as two parallel ``int64`` id arrays;
  cluster membership is a flat ``parent`` array queried with a vectorized
  iterated-``parent[roots]`` find, so re-checking every pending pair of a
  touched component is a handful of array expressions instead of one
  Python ``deduce`` call per pair;
* **batched answer application** — a contiguous run of answers dirties a
  set of components; one :meth:`VectorizedEngineCore.sweep` then resolves
  everything the run implies with a single bulk pass per dirty component
  (the dirty-component idea from
  :class:`~repro.engine.frontier.ShardedFrontier`, applied to deduction);
* **vectorized Algorithm-3 frontier** — for components with no
  non-matching labels, the must-crowdsource selection is computed exactly
  by a Boruvka minimum-spanning-forest kernel (see below) instead of the
  per-pair optimistic scan; components with one scan only that forest and
  their non-matching labels.

Frontier/MSF equivalence
    In the Algorithm-3 scan every pair — labeled matching or assumed
    matching — merges its endpoints when it is reached, and an unlabeled
    pair is *selected* exactly when its endpoints are still in different
    clusters at its position.  When a component contains no non-matching
    labels, that greedy order-insertion forest is precisely the minimum
    spanning forest of the component's pair graph under weight = order
    position; positions are distinct, so the MSF is unique and therefore
    independent of how it is computed.  Boruvka rounds (pick each
    cluster's minimum-weight incident edge — the cut property marks it as
    a forest edge — then hook and flatten) compute the same mask in
    O(log n) array passes.  Selection and publication never affect how
    the optimistic graph evolves, so exclusions are applied as a mask
    *after* the forest is marked.

    A component with non-matching labels still reduces to a forest plus
    those labels.  Only pairs not labeled NON_MATCHING merge clusters in
    the scan, so the clusters at any position are those of the greedy
    forest of the component's non-NON_MATCHING pairs.  A pair outside that
    forest has both endpoints joined before the scan reaches it: Algorithm
    3 deduces it MATCHING, and its assumed merge changes nothing.  The
    scan over (a) that forest and (b) the component's NON_MATCHING-labeled
    pairs therefore selects exactly what the full scan selects.
    :class:`_ForestCursor` runs it from a decided prefix on, as
    :class:`~repro.engine.frontier.FrontierCursor` does: the prefix is
    folded into a persistent :class:`~repro.engine.frontier.OptimisticGraph`
    once, and each call marks the suffix's forest with the Boruvka kernel
    seeded with the prefix's connectivity, then scans it under a
    checkpoint it rolls back.  Components of at most
    :data:`SMALL_COMPONENT_THRESHOLD` pairs select through
    :class:`_ScanCursor` instead, the same decided-prefix scan over every
    suffix pair with no array kernel, as the MSF path runs the scalar
    greedy forest there.

Array namespace policy
    Kernels take the array namespace as a parameter
    (``array_api_compat``-style indirection): :func:`array_namespace`
    resolves it at runtime, preferring ``array_api_compat`` when
    installed and falling back to plain ``numpy``.  numpy is an *optional*
    dependency (the ``perf`` extra): when it is missing,
    ``LabelingEngine(backend="vectorized")`` silently degrades to the
    pure-Python monolithic backend, and ``backend="auto"`` skips the
    vectorized tier.  Two kernels intentionally use numpy-specific
    behaviour beyond the array API standard — object-dtype arrays for
    O(1) pair materialization and duplicate-index scatter assignment
    (last write wins) in the Boruvka pick step; a strict array-API
    backend would need those two seams ported.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

from ..core.cluster_graph import Conflict, ConflictPolicy, admit_label, record_each
from ..core.pairs import LABEL_CODE, LABEL_OF_CODE, CandidatePair, Label, Pair
from .frontier import OptimisticGraph, greedy_forest

#: Components with at most this many pairs recompute their frontier with a
#: scalar scan (the greedy forest, or :class:`_ScanCursor` once they carry a
#: non-matching label): the Boruvka kernel pays O(n_objects) array passes
#: per round, which only amortizes over large batches.
SMALL_COMPONENT_THRESHOLD = 4096

#: The ``label_code`` of a pending pair; labeled pairs carry
#: :data:`~repro.core.pairs.LABEL_CODE`.
CODE_UNLABELED = 0
_CODE_MATCHING = LABEL_CODE[Label.MATCHING]
_CODE_NON_MATCHING = LABEL_CODE[Label.NON_MATCHING]

#: Kind tag of the :meth:`VectorizedEngineCore.snapshot_arrays` payload.
VECTOR_SNAPSHOT_KIND = "vectorized-arrays-v1"


def _pack_adjacency(nm: Dict[int, Set[int]], b64) -> dict:
    """Encode a root -> neighbour-set adjacency as three packed columns."""
    roots: List[int] = []
    counts: List[int] = []
    flat: List[int] = []
    for root in sorted(nm):
        neighbours = sorted(nm[root])
        roots.append(root)
        counts.append(len(neighbours))
        flat.extend(neighbours)
    # Object ids are bounded by the order's universe, so 4-byte lanes
    # always fit and halve the base64 footprint.
    return {
        "roots": b64(roots, "<i4"),
        "counts": b64(counts, "<i4"),
        "flat": b64(flat, "<i4"),
    }


def _unpack_adjacency(payload: dict) -> Dict[int, Set[int]]:
    """Decode a :func:`_pack_adjacency` payload back into the dict."""
    import base64

    import numpy

    def ints(key: str) -> List[int]:
        return numpy.frombuffer(
            base64.b64decode(payload[key]), dtype="<i4"
        ).tolist()

    flat = ints("flat")
    nm: Dict[int, Set[int]] = {}
    idx = 0
    for root, count in zip(ints("roots"), ints("counts")):
        nm[root] = set(flat[idx : idx + count])
        idx += count
    return nm


def array_namespace():
    """The array namespace backing the vectorized kernels, or ``None``.

    Resolution order: ``array_api_compat.array_namespace`` over a numpy
    array when that package is installed, else numpy itself, else ``None``
    when numpy is unavailable.  The import happens on every call so test
    harnesses can simulate a numpy-less interpreter by stubbing
    ``sys.modules["numpy"]``; modules lacking the required surface (e.g. a
    test double) count as unavailable.
    """
    try:
        import numpy
    except ImportError:
        return None
    for name in ("asarray", "arange", "empty", "zeros", "concatenate", "minimum"):
        if not hasattr(numpy, name):
            return None
    try:
        import array_api_compat
    except ImportError:
        return numpy
    try:
        return array_api_compat.array_namespace(numpy.empty(0))
    except Exception:
        return numpy


def vectorized_available() -> bool:
    """True iff the vectorized backend can run in this interpreter."""
    return array_namespace() is not None


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def _find_many(xp, parent, ids):
    """Roots of ``ids`` under ``parent`` (no path compression): iterate
    ``parent[roots]`` to a fixpoint.  Depth is kept O(1)-ish by the
    union-by-size scalar path and the per-round flatten in the Boruvka
    kernel, so two or three passes suffice in practice."""
    roots = parent[ids]
    while True:
        nxt = parent[roots]
        if bool((nxt == roots).all()):
            return roots
        roots = nxt


def _flatten_inplace(xp, parent):
    """Pointer-jump ``parent`` until every entry points at its root."""
    while True:
        nxt = parent[parent]
        if bool((nxt == parent).all()):
            return
        parent[:] = nxt


def _forest_mask(xp, left, right, n_objects, parent=None):
    """Mark the unique minimum spanning forest of an edge list.

    ``left``/``right`` are endpoint id arrays in **ascending weight
    order** (weight = array index; all weights distinct by construction).
    Returns ``(mask, parent)``: a boolean array flagging forest edges, and
    the flattened ``parent`` array whose entries are final component
    roots.

    Boruvka rounds: drop intra-component edges, let every component pick
    its minimum-weight incident edge via reversed scatter (duplicate-index
    assignment writes in order, so scattering in descending weight order
    makes the minimum win), mark the picks — the cut property guarantees
    each is a forest edge — then hook the higher root under the lower and
    flatten.  Conflicting hooks lose at most the union, never the mark:
    a lost edge stays alive and is re-applied in a later round, and since
    forest edges never become intra-component before being applied, the
    mask converges to exactly the greedy order-insertion forest.
    """
    m = int(left.shape[0])
    if parent is None:
        parent = xp.arange(n_objects, dtype=xp.int64)
    mask = xp.zeros(m, dtype=bool)
    alive = xp.arange(m, dtype=xp.int64)
    sentinel = m
    best_left = xp.empty(n_objects, dtype=xp.int64)
    best_right = xp.empty(n_objects, dtype=xp.int64)
    while alive.shape[0]:
        roots_l = _find_many(xp, parent, left[alive])
        roots_r = _find_many(xp, parent, right[alive])
        crossing = roots_l != roots_r
        alive = alive[crossing]
        if not alive.shape[0]:
            break
        roots_l = roots_l[crossing]
        roots_r = roots_r[crossing]
        k = xp.arange(alive.shape[0], dtype=xp.int64)
        best_left[:] = sentinel
        best_right[:] = sentinel
        best_left[roots_l[::-1]] = k[::-1]
        best_right[roots_r[::-1]] = k[::-1]
        pick = xp.minimum(best_left, best_right)
        picked = pick[pick != sentinel]
        mask[alive[picked]] = True
        lo = xp.minimum(roots_l[picked], roots_r[picked])
        hi = xp.maximum(roots_l[picked], roots_r[picked])
        parent[hi] = lo
        _flatten_inplace(xp, parent)
    return mask, parent


def _fold_labels(graph: OptimisticGraph, lefts, rights, codes) -> None:
    """Insert labeled entries into ``graph`` with their real labels."""
    for a, b, code in zip(lefts, rights, codes):
        if code == _CODE_MATCHING:
            graph.assume_matching(a, b)
        else:
            graph.add_non_matching(a, b)


def _scan_suffix(graph: OptimisticGraph, lefts, rights, codes, held) -> List[int]:
    """Algorithm 3's scan of the entries on top of ``graph``'s decided
    prefix, under a checkpoint it rolls back.

    Returns:
        The indices of the selected entries: unlabeled, not ``held``, and
        separated in the optimistic graph when the scan reaches them.
    """
    picked: List[int] = []
    graph.checkpoint()
    try:
        for k, (a, b, code, is_held) in enumerate(zip(lefts, rights, codes, held)):
            if code == _CODE_NON_MATCHING:
                graph.add_non_matching(a, b)
                continue
            if code == CODE_UNLABELED and not is_held and graph.separated(a, b):
                picked.append(k)
            # Labeled matching, or assumed matching as in the full scan.
            graph.assume_matching(a, b)
    finally:
        graph.rollback()
    return picked


class _ScanCursor:
    """Algorithm 3 over one small component that carries a non-matching
    label: :class:`~repro.engine.frontier.FrontierCursor`'s scan of the
    whole undecided suffix, reading label codes and the exclusion mask.

    Components of at most :data:`SMALL_COMPONENT_THRESHOLD` pairs select
    here: a handful of list operations, where :class:`_ForestCursor` pays
    dozens of array calls per selection.

    Args:
        xp: the array namespace.
        positions: the component's global order positions, ascending.
        left, right: the global object ids of each position's endpoints.
    """

    def __init__(self, xp, positions, left, right) -> None:
        self._xp = xp
        self._positions = positions
        self._left = left.tolist()
        self._right = right.tolist()
        self._graph = OptimisticGraph()
        self._cursor = 0

    def select(self, label_code, excluded):
        """The component's must-crowdsource positions, ascending."""
        start = self._cursor
        rest = self._positions[start:]
        codes = label_code[rest].tolist()
        try:
            advance = codes.index(CODE_UNLABELED)
        except ValueError:
            advance = len(codes)
        stop = start + advance
        _fold_labels(
            self._graph, self._left[start:stop], self._right[start:stop], codes[:advance]
        )
        self._cursor = stop
        rest = rest[advance:]
        picked = _scan_suffix(
            self._graph,
            self._left[stop:],
            self._right[stop:],
            codes[advance:],
            excluded[rest].tolist(),
        )
        return rest[self._xp.asarray(picked, dtype=self._xp.int64)]


class _ForestCursor:
    """Algorithm 3 over one large component that carries a non-matching
    label.

    Scans only the component's greedy forest of non-NON_MATCHING pairs and
    its NON_MATCHING-labeled pairs (see "Frontier/MSF equivalence" in the
    module docstring), over local object ids ``0..n-1``.  The leading run
    of labeled pairs is folded once into a persistent
    :class:`OptimisticGraph` and into ``_parent``, the same connectivity as
    an array, which seeds the Boruvka kernel for the undecided suffix.

    Args:
        xp: the array namespace.
        positions: the component's global order positions, ascending.
        left, right: the global object ids of each position's endpoints.
    """

    def __init__(self, xp, positions, left, right) -> None:
        objects = xp.unique(xp.concatenate((left, right)))
        self._xp = xp
        self._positions = positions
        # A component's objects number far below 2**31.
        self._left = xp.searchsorted(objects, left).astype(xp.int32)
        self._right = xp.searchsorted(objects, right).astype(xp.int32)
        self._n = int(objects.shape[0])
        self._parent = xp.arange(self._n, dtype=xp.int64)
        self._graph = OptimisticGraph()
        self._cursor = 0

    def _fold(self, codes) -> None:
        """Fold the labeled entries ``codes`` at the cursor into the prefix."""
        xp = self._xp
        start = self._cursor
        stop = start + codes.shape[0]
        left, right = self._left[start:stop], self._right[start:stop]
        matching = xp.nonzero(codes == _CODE_MATCHING)[0]
        in_forest, self._parent = _forest_mask(
            xp, left[matching], right[matching], self._n, parent=self._parent
        )
        folded = xp.sort(
            xp.concatenate(
                (matching[in_forest], xp.nonzero(codes == _CODE_NON_MATCHING)[0])
            )
        )
        _fold_labels(
            self._graph,
            left[folded].tolist(),
            right[folded].tolist(),
            codes[folded].tolist(),
        )
        self._cursor = stop

    def select(self, label_code, excluded):
        """The component's must-crowdsource positions, ascending."""
        xp = self._xp
        codes = label_code[self._positions[self._cursor :]]
        undecided = xp.nonzero(codes == CODE_UNLABELED)[0]
        if not undecided.shape[0]:
            self._cursor = self._positions.shape[0]
            return self._positions[:0]
        advance = int(undecided[0])
        if advance:
            self._fold(codes[:advance])
            codes = codes[advance:]
        start = self._cursor
        positions = self._positions[start:]
        left, right = self._left[start:], self._right[start:]
        non_matching = codes == _CODE_NON_MATCHING
        merging = xp.nonzero(~non_matching)[0]
        in_forest, _ = _forest_mask(
            xp, left[merging], right[merging], self._n, parent=self._parent.copy()
        )
        scan = xp.sort(
            xp.concatenate((merging[in_forest], xp.nonzero(non_matching)[0]))
        )
        picked = _scan_suffix(
            self._graph,
            left[scan].tolist(),
            right[scan].tolist(),
            codes[scan].tolist(),
            excluded[positions[scan]].tolist(),
        )
        return positions[scan[xp.asarray(picked, dtype=xp.int64)]]


# ----------------------------------------------------------------------
# the engine core
# ----------------------------------------------------------------------
class VectorizedEngineCore:
    """Array-native deduction graph + frontier for one labeling order.

    Owns the flat encoding (dense object ids, parallel ``left``/``right``
    position arrays, ``label_code``/``excluded``/``withheld`` state masks),
    the union-find deduction graph over that encoding, and the per-component
    caches behind :meth:`sweep` and :meth:`frontier`.  This is the engine
    core of ``backend="vectorized"``: ``LabelingEngine`` forwards every
    event to the methods below, and the core keeps whatever label and
    publication state its kernels read.

    The candidate components are *static* (computed from the full order at
    construction): answers are always order pairs, so deduction paths and
    Algorithm-3 interactions never cross component boundaries, and both
    kernels re-check only components dirtied since their last run.

    Args:
        order: the labeling order (pairs or candidate pairs; duplicates
            collapse to their first occurrence, as in the engine).
        policy: conflict policy for insertions.
        xp: array namespace override (tests); defaults to
            :func:`array_namespace`.

    Raises:
        ImportError: when no array namespace is available.
    """

    def __init__(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        *,
        policy: ConflictPolicy = ConflictPolicy.STRICT,
        xp=None,
        positions: Optional[Dict[Pair, int]] = None,
    ) -> None:
        if xp is None:
            xp = array_namespace()
        if xp is None:
            raise ImportError(
                "the vectorized backend requires numpy (install the 'perf' extra)"
            )
        self._xp = xp
        if positions is not None:
            # Trusted fast path: the caller already deduplicated the order
            # into plain pairs, with ``positions`` mapping each pair to its
            # index — skip re-walking the sequence.
            pairs: List[Pair] = list(order)
        else:
            pairs = []
            positions = {}
            for item in order:
                pair = item.pair if isinstance(item, CandidatePair) else item
                if pair not in positions:
                    positions[pair] = len(pairs)
                    pairs.append(pair)
        self.pairs = pairs
        self._pos_of = positions
        m = len(pairs)

        # Dense object ids and the parallel endpoint arrays.  Ids are
        # collected in plain lists first: per-element scatter into a numpy
        # array costs more than the single bulk conversion at the end.
        id_of: Dict[Hashable, int] = {}
        left_ids: List[int] = []
        right_ids: List[int] = []
        setdefault = id_of.setdefault
        for pair in pairs:
            left_ids.append(setdefault(pair.left, len(id_of)))
            right_ids.append(setdefault(pair.right, len(id_of)))
        self._id_of = id_of
        # Dict insertion order *is* id order, so the id->object list falls
        # out of the index for free.
        self._objects = objects = list(id_of)
        left = xp.asarray(left_ids, dtype=xp.int64)
        right = xp.asarray(right_ids, dtype=xp.int64)
        if m == 0:
            left = xp.empty(0, dtype=xp.int64)
            right = xp.empty(0, dtype=xp.int64)
        self._left = left
        self._right = right
        n = len(objects)
        self.n_universe = n

        # O(1) bulk pair materialization: an object array over the order.
        pair_arr = xp.empty(m, dtype=object)
        pair_arr[:] = pairs
        self._pair_arr = pair_arr

        # Static candidate components (one full-order Boruvka pass) are
        # materialized lazily by :meth:`_ensure_components`: only the
        # frontier path and the cross-component guard read them, so a
        # snapshot restore of an already-finished campaign never pays for
        # the decomposition.
        self._comp_of_obj: Optional[object] = None
        self._comp_of_pair: Optional[object] = None
        self._comp_positions: Optional[Dict[int, object]] = None

        # Deduction graph state: union-find arrays over the dense ids, lazy
        # "seen" registration mirroring the monolithic graph, and an nm
        # adjacency between current roots with monolithic-style rewiring on
        # union.
        self._parent = xp.arange(n, dtype=xp.int64)
        self._size = xp.ones(n, dtype=xp.int64)
        self._seen = xp.zeros(n, dtype=bool)
        self._nm_store: Optional[Dict[int, Set[int]]] = {}
        self._nm_packed: Optional[dict] = None
        self._n_objects = 0
        self._n_clusters = 0
        self._n_matching_edges = 0
        self._n_non_matching_edges = 0
        self.policy = policy
        self.conflicts: List[Conflict] = []

        # Labeling/publication state masks over order positions.
        self._label_code = xp.zeros(m, dtype=xp.int8)
        self._excluded = xp.zeros(m, dtype=bool)
        self._withheld = xp.zeros(m, dtype=bool)

        # Dirty bookkeeping.  Sweeps are root-granular: each union-find
        # root owns the pending order positions touching its cluster, and
        # an answer dirties only the roots it changed, so one sweep costs
        # O(affected neighbourhood) instead of O(component).  The sweep
        # set starts empty (nothing is deducible before any answer); the
        # frontier set (component-granular — Algorithm 3 is a per-component
        # computation) starts all-dirty so the first call reads the full
        # state.
        self._sweep_dirty: Set[int] = set()
        self._root_pending: Dict[int, object] = {}
        if m:
            self._rebuild_root_pending(xp.arange(m, dtype=xp.int64))
        self._frontier_all_dirty = True
        self._frontier_dirty: Set[int] = set()
        self._nm_label_comps: Set[int] = set()
        self._cursors: Dict[int, Union[_ScanCursor, _ForestCursor]] = {}
        self._selected: Dict[int, object] = {}
        self._merged: Optional[List[Pair]] = None
        self._empty_positions = xp.empty(0, dtype=xp.int64)

    def _ensure_components(self) -> None:
        """Materialize the static component decomposition on first use.

        Components drive the frontier computation and the cross-component
        guard; the deduction sweep is root-granular and never reads them.
        Comp-keyed state that accrued while the decomposition was absent
        (nm-labeled components, the all-dirty frontier marker) is derived
        here from the label masks, which carry the same information.
        """
        if self._comp_positions is not None:
            return
        xp = self._xp
        m = len(self.pairs)
        _, comp_of_obj = _forest_mask(xp, self._left, self._right, self.n_universe)
        self._comp_of_obj = comp_of_obj
        comp_of_pair = (
            comp_of_obj[self._left] if m else xp.empty(0, dtype=xp.int64)
        )
        self._comp_of_pair = comp_of_pair
        # Group order positions by component: a stable argsort on the
        # component key keeps each slice in ascending position order.
        comp_positions: Dict[int, object] = {}
        if m:
            by_comp = xp.argsort(comp_of_pair, kind="stable")
            sorted_comps = comp_of_pair[by_comp]
            boundary = xp.empty(sorted_comps.shape[0], dtype=bool)
            boundary[0] = True
            boundary[1:] = sorted_comps[1:] != sorted_comps[:-1]
            starts = xp.nonzero(boundary)[0]
            for t in range(starts.shape[0]):
                start = int(starts[t])
                stop = int(starts[t + 1]) if t + 1 < starts.shape[0] else m
                comp_positions[int(sorted_comps[start])] = by_comp[start:stop]
        self._comp_positions = comp_positions
        if m:
            nm_mask = self._label_code == LABEL_CODE[Label.NON_MATCHING]
            self._nm_label_comps = {
                int(comp) for comp in xp.unique(comp_of_pair[nm_mask]).tolist()
            }
        if self._frontier_all_dirty:
            self._frontier_dirty = set(comp_positions)
            self._frontier_all_dirty = False

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        """Number of static candidate-graph components."""
        self._ensure_components()
        return len(self._comp_positions)

    @property
    def xp(self):
        """The array namespace the kernels run against."""
        return self._xp

    # ------------------------------------------------------------------
    # scalar graph operations
    # ------------------------------------------------------------------
    def _find(self, i: int) -> int:
        """Scalar find with full path compression."""
        parent = self._parent
        root = int(parent[i])
        while True:
            up = int(parent[root])
            if up == root:
                break
            root = up
        while int(parent[i]) != root:
            parent[i], i = root, int(parent[i])
        return root

    def _see(self, i: int) -> None:
        if not bool(self._seen[i]):
            self._seen[i] = True
            self._n_objects += 1
            self._n_clusters += 1

    @property
    def _nm(self) -> Dict[int, Set[int]]:
        """Root -> neighbour-roots non-matching adjacency.

        After :meth:`restore_arrays` the adjacency stays in its packed
        snapshot form until something actually reads it — deduction and
        sweeps during live labeling do, but a restore that only serves
        queries (e.g. recovering an already-finished campaign) never pays
        the dict-of-sets rebuild.
        """
        nm = self._nm_store
        if nm is None:
            nm = self._nm_store = _unpack_adjacency(self._nm_packed)
            self._nm_packed = None
        return nm

    @_nm.setter
    def _nm(self, value: Dict[int, Set[int]]) -> None:
        self._nm_store = value
        self._nm_packed = None

    def _require_ids(self, pair: Pair) -> Tuple[int, int]:
        id_of = self._id_of
        i = id_of.get(pair.left)
        j = id_of.get(pair.right)
        if i is None or j is None:
            raise ValueError(
                f"{pair!r} involves objects outside the labeling order: the "
                "vectorized graph is bound to the engine's candidate universe "
                "(use the monolithic backend for open-world graphs)"
            )
        self._ensure_components()
        if int(self._comp_of_obj[i]) != int(self._comp_of_obj[j]):
            raise ValueError(
                f"{pair!r} spans two candidate components: the vectorized "
                "backend tracks deductions per static component and no order "
                "pair crosses them"
            )
        return i, j

    def deduce(self, pair: Pair) -> Optional[Label]:
        """Algorithm-1 deduction over the array state (scalar path)."""
        id_of = self._id_of
        i = id_of.get(pair.left)
        j = id_of.get(pair.right)
        if i is None or j is None:
            return None
        if not (bool(self._seen[i]) and bool(self._seen[j])):
            return None
        root_i = self._find(i)
        root_j = self._find(j)
        if root_i == root_j:
            return Label.MATCHING
        if root_j in self._nm.get(root_i, ()):
            return Label.NON_MATCHING
        return None

    def record_answer(self, pair: Pair, label: Label) -> bool:
        """A crowd answer: the pair's final label, inserted into the graph
        with the same contract as ``ClusterGraph.add`` (returns False for a
        FIRST_WINS conflict, raises under STRICT).

        New deduction information (an effective union or a new cluster-level
        non-matching edge) dirties the pair's root for the next
        :meth:`sweep`; redundant edges dirty nothing, mirroring the listener
        events :class:`~repro.core.sweep.PendingPairIndex` reacts to.
        """
        self._note_labeled(pair, label)
        i, j = self._require_ids(pair)
        if not admit_label(self, pair, label):
            return False
        self._see(i)
        self._see(j)
        root_i = self._find(i)
        root_j = self._find(j)
        if label is Label.MATCHING:
            self._n_matching_edges += 1
            if root_i != root_j:
                survivor = self._union(root_i, root_j)
                # Every pair the merge made deducible touches the merged
                # cluster, and the loser's pending list just folded into
                # the survivor's.
                self._sweep_dirty.add(survivor)
        else:
            # admit_label rejected intra-cluster non-matching edges.
            if root_j not in self._nm.get(root_i, ()):
                self._nm.setdefault(root_i, set()).add(root_j)
                self._nm.setdefault(root_j, set()).add(root_i)
                self._n_non_matching_edges += 1
                self._sweep_dirty.add(root_i)
                self._sweep_dirty.add(root_j)
        return True

    def record_answers(self, answers: Sequence[Tuple[Pair, Label]]) -> List[bool]:
        """A run of crowd answers, each as :meth:`record_answer`; the next
        :meth:`sweep` re-checks every root the run dirtied once."""
        return record_each(self.record_answer, answers)

    def _rebuild_root_pending(self, positions) -> None:
        """Key ``positions`` (pending order positions) by the current root
        of each endpoint, one vectorized argsort pass.  A position lands in
        both endpoints' lists; :meth:`sweep` de-duplicates on read."""
        xp = self._xp
        self._root_pending = {}
        if not positions.shape[0]:
            return
        roots = xp.concatenate(
            (
                _find_many(xp, self._parent, self._left[positions]),
                _find_many(xp, self._parent, self._right[positions]),
            )
        )
        doubled = xp.concatenate((positions, positions))
        order_idx = xp.argsort(roots, kind="stable")
        sorted_roots = roots[order_idx]
        doubled = doubled[order_idx]
        boundary = xp.empty(sorted_roots.shape[0], dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_roots[1:] != sorted_roots[:-1]
        starts = xp.nonzero(boundary)[0]
        n_runs = starts.shape[0]
        for t in range(n_runs):
            start = int(starts[t])
            stop = int(starts[t + 1]) if t + 1 < n_runs else sorted_roots.shape[0]
            self._root_pending[int(sorted_roots[start])] = doubled[start:stop]

    def _union(self, root_a: int, root_b: int) -> int:
        """Union by size with monolithic-style nm-adjacency rewiring."""
        size = self._size
        if int(size[root_a]) < int(size[root_b]):
            root_a, root_b = root_b, root_a
        survivor, loser = root_a, root_b
        self._parent[loser] = survivor
        size[survivor] = int(size[survivor]) + int(size[loser])
        self._n_clusters -= 1
        loser_nm = self._nm.pop(loser, None)
        if loser_nm:
            survivor_nm = self._nm.setdefault(survivor, set())
            for neighbour in loser_nm:
                self._nm[neighbour].discard(loser)
                if neighbour == survivor:
                    # Defensive: admit_label rejects the self-loop case.
                    self._n_non_matching_edges -= 1
                    continue
                if neighbour in survivor_nm:
                    # Parallel edges collapse into one cluster-level edge.
                    self._n_non_matching_edges -= 1
                else:
                    self._nm[neighbour].add(survivor)
                    survivor_nm.add(neighbour)
            if not survivor_nm:
                del self._nm[survivor]
        loser_pending = self._root_pending.pop(loser, None)
        if loser_pending is not None:
            mine = self._root_pending.get(survivor)
            if mine is None:
                self._root_pending[survivor] = loser_pending
            else:
                self._root_pending[survivor] = self._xp.concatenate(
                    (mine, loser_pending)
                )
        return survivor

    # ------------------------------------------------------------------
    # engine events
    # ------------------------------------------------------------------
    def _note_labeled(self, pair: Pair, label: Label) -> None:
        """A pair received its final label (crowd answer or deduction):
        update the state masks and dirty its component's frontier."""
        pos = self._pos_of.get(pair)
        if pos is None:
            return
        self._label_code[pos] = LABEL_CODE[label]
        self._excluded[pos] = False
        self._withheld[pos] = False
        self._merged = None
        # Before the decomposition exists the frontier is all-dirty and
        # _ensure_components derives the nm-labeled set from the masks.
        if self._comp_of_pair is not None:
            comp = int(self._comp_of_pair[pos])
            self._frontier_dirty.add(comp)
            if label is Label.NON_MATCHING:
                # The component leaves the MSF fast path for good: its
                # selection needs the forest + non-matching scan.
                self._nm_label_comps.add(comp)

    def record_deduced(self, pair: Pair, label: Label) -> None:
        """A label the engine deduced outside :meth:`sweep` (visit time)."""
        self._note_labeled(pair, label)

    def publish(self, batch: Sequence[Pair], *, withhold: bool) -> None:
        """Pairs handed to the crowd: excluded from future selections, and
        with ``withhold`` also out of the sweep's reach."""
        pos_of = self._pos_of
        comp_of_pair = self._comp_of_pair
        for pair in batch:
            pos = pos_of.get(pair)
            if pos is None:
                continue
            self._excluded[pos] = True
            self._merged = None
            if comp_of_pair is not None:
                self._frontier_dirty.add(int(comp_of_pair[pos]))
        if withhold:
            self.withhold(batch)

    def withhold(self, batch: Sequence[Pair]) -> None:
        """Pairs taken out of the deduction sweep's reach."""
        pos_of = self._pos_of
        for pair in batch:
            pos = pos_of.get(pair)
            if pos is not None:
                self._withheld[pos] = True

    # ------------------------------------------------------------------
    # bulk kernels
    # ------------------------------------------------------------------
    def sweep(self) -> List[Tuple[Pair, Label]]:
        """Resolve every pending pair the answers so far imply.

        One bulk pass over the dirty roots' pending lists: vectorized find
        over both endpoint arrays decides matching deductions (equal
        roots); the surviving cross-cluster pairs probe the nm adjacency.
        Exactly the pairs :class:`~repro.core.sweep.PendingPairIndex`
        would resolve — both compute "all pending deducible pairs", and a
        pair can only become deducible through an answer that dirtied a
        root its endpoint now resolves to (a union folds the loser's
        pending list into the dirtied survivor; a new nm edge dirties
        both roots it connects, and rewired nm edges are all incident to
        the dirtied survivor).

        Visited pending lists are compacted on the way: already-labeled
        positions drop out for good, withheld positions stay listed (they
        leave the pending set only by being labeled).  The resolutions are
        written to the state masks as a whole, one array write per mask.

        Returns:
            (pair, implied label) per newly resolved pair, in order
            position, each already recorded as the pair's final label.
        """
        if not self._sweep_dirty:
            return []
        xp = self._xp
        dirty = self._sweep_dirty
        self._sweep_dirty = set()
        chunks: List[object] = []
        visited: Set[int] = set()
        for r in dirty:
            live = self._find(int(r))  # a dirtied root may have retired
            if live in visited:
                continue
            visited.add(live)
            positions = self._root_pending.get(live)
            if positions is None:
                continue
            keep = self._label_code[positions] == CODE_UNLABELED
            if not bool(keep.all()):
                positions = positions[keep]
                if positions.shape[0]:
                    self._root_pending[live] = positions
                else:
                    del self._root_pending[live]
                    continue
            chunks.append(positions)
        if not chunks:
            return []
        # A position sits in both endpoints' lists: de-duplicate (unique
        # also sorts, giving order-position output for free).
        pending = xp.unique(
            chunks[0] if len(chunks) == 1 else xp.concatenate(chunks)
        )
        pending = pending[~self._withheld[pending]]
        if not pending.shape[0]:
            return []
        roots_l = _find_many(xp, self._parent, self._left[pending])
        roots_r = _find_many(xp, self._parent, self._right[pending])
        seen = self._seen[self._left[pending]] & self._seen[self._right[pending]]
        same = (roots_l == roots_r) & seen
        resolved = xp.nonzero(same)[0]
        hits: List[int] = []
        if self._nm:
            nm = self._nm
            cross = xp.nonzero(seen & ~same)[0]
            if cross.shape[0]:
                hits = [
                    k
                    for k, root_a, root_b in zip(
                        cross.tolist(),
                        roots_l[cross].tolist(),
                        roots_r[cross].tolist(),
                    )
                    if root_b in nm.get(root_a, ())
                ]
            if hits:
                resolved = xp.sort(
                    xp.concatenate((resolved, xp.asarray(hits, dtype=xp.int64)))
                )
        if not resolved.shape[0]:
            return []
        positions = pending[resolved]
        matching = same[resolved]
        codes = xp.full(positions.shape[0], _CODE_NON_MATCHING, dtype=xp.int8)
        codes[matching] = _CODE_MATCHING
        # Withheld positions were filtered out above: only the label and
        # exclusion masks change.
        self._label_code[positions] = codes
        self._excluded[positions] = False
        self._merged = None
        if self._comp_of_pair is not None:
            comps = self._comp_of_pair[positions]
            self._frontier_dirty.update(comps.tolist())
            if hits:
                self._nm_label_comps.update(comps[~matching].tolist())
        return list(
            zip(
                self._pair_arr[positions].tolist(),
                map(LABEL_OF_CODE.__getitem__, codes.tolist()),
            )
        )

    def frontier(self) -> List[Pair]:
        """The current must-crowdsource pairs, in order (Algorithm 3).

        Identical to ``must_crowdsource_frontier(order, labeled, published)``
        over the labels and publications recorded so far (property-tested).
        Dirty components with no non-matching label recompute through the
        Boruvka MSF kernel — batched into a single kernel invocation across
        components, since disjoint components cannot interact; components
        carrying a non-matching label select through their own cursor, a
        :class:`_ScanCursor` at or below :data:`SMALL_COMPONENT_THRESHOLD`
        pairs and a :class:`_ForestCursor` above it.  Clean components
        serve their cached selections.
        """
        if self._merged is not None and not self._frontier_dirty:
            return list(self._merged)
        self._ensure_components()
        xp = self._xp
        dirty = self._frontier_dirty
        self._frontier_dirty = set()
        batch: List[object] = []
        for comp in dirty:
            positions = self._comp_positions[comp]
            if comp in self._nm_label_comps:
                cursor = self._cursors.get(comp)
                if cursor is None:
                    kind = (
                        _ScanCursor
                        if positions.shape[0] <= SMALL_COMPONENT_THRESHOLD
                        else _ForestCursor
                    )
                    cursor = self._cursors[comp] = kind(
                        xp, positions, self._left[positions], self._right[positions]
                    )
                self._selected[comp] = cursor.select(self._label_code, self._excluded)
            elif positions.shape[0] <= SMALL_COMPONENT_THRESHOLD:
                mask, _ = greedy_forest(
                    self._left[positions].tolist(), self._right[positions].tolist()
                )
                candidates = positions[xp.asarray(mask, dtype=bool)]
                self._selected[comp] = candidates[
                    (self._label_code[candidates] == CODE_UNLABELED)
                    & ~self._excluded[candidates]
                ]
            else:
                batch.append(positions)
                self._selected[comp] = self._empty_positions
        if batch:
            # One kernel call covers every large dirty component: the MSF of
            # a disjoint union is the union of the MSFs.  Sorting restores
            # the global ascending-weight order the kernel requires.
            all_positions = xp.sort(xp.concatenate(batch))
            mask, _ = _forest_mask(
                xp,
                self._left[all_positions],
                self._right[all_positions],
                self.n_universe,
            )
            candidates = all_positions[mask]
            candidates = candidates[
                (self._label_code[candidates] == CODE_UNLABELED)
                & ~self._excluded[candidates]
            ]
            # Split the combined selection back into per-component caches.
            comps = self._comp_of_pair[candidates]
            by_comp = xp.argsort(comps, kind="stable")
            candidates = candidates[by_comp]
            comps = comps[by_comp]
            if comps.shape[0]:
                boundary = xp.empty(comps.shape[0], dtype=bool)
                boundary[0] = True
                boundary[1:] = comps[1:] != comps[:-1]
                starts = xp.nonzero(boundary)[0]
                n_runs = starts.shape[0]
                for t in range(n_runs):
                    start = int(starts[t])
                    stop = (
                        int(starts[t + 1]) if t + 1 < n_runs else comps.shape[0]
                    )
                    self._selected[int(comps[start])] = candidates[start:stop]
        runs = [selected for selected in self._selected.values() if selected.shape[0]]
        if not runs:
            merged: List[Pair] = []
        else:
            merged_positions = runs[0] if len(runs) == 1 else xp.sort(
                xp.concatenate(runs)
            )
            merged = self._pair_arr[merged_positions].tolist()
        self._merged = merged
        return list(merged)

    def close(self) -> None:
        """Nothing to release: the core lives in this process."""

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify internal consistency; raises AssertionError on violation."""
        xp = self._xp
        for root, neighbours in self._nm.items():
            assert self._find(root) == root, f"{root} is not a current root"
            assert root not in neighbours, f"self-loop at {root}"
            for other in neighbours:
                assert root in self._nm.get(other, ()), "asymmetric adjacency"
        n_edges = sum(len(neighbours) for neighbours in self._nm.values())
        assert n_edges == 2 * self._n_non_matching_edges, "edge count drift"
        assert int(self._seen.sum()) == self._n_objects, "seen-count drift"
        if self._n_objects:
            seen_ids = xp.nonzero(self._seen)[0]
            roots = _find_many(xp, self._parent, seen_ids)
            assert len(set(roots.tolist())) == self._n_clusters, "cluster-count drift"
        labeled_positions = xp.nonzero(self._label_code != CODE_UNLABELED)[0]
        assert not bool(self._excluded[labeled_positions].any()), (
            "a labeled pair is still marked published"
        )
        for root in self._root_pending:
            assert self._find(root) == root, (
                f"pending list keyed by retired root {root}"
            )
        pending = xp.nonzero(self._label_code == CODE_UNLABELED)[0]
        if pending.shape[0]:
            listed: Set[int] = set()
            for positions in self._root_pending.values():
                listed.update(positions.tolist())
            missing = set(pending.tolist()) - listed
            assert not missing, (
                f"pending positions missing from root lists: {sorted(missing)[:5]}"
            )

    # ------------------------------------------------------------------
    # snapshot / restore (the near-native serialization seam)
    # ------------------------------------------------------------------
    def snapshot_arrays(self) -> dict:
        """Serialize the flat array state near-natively.

        The union-find, seen mask, label/exclusion masks, nm adjacency,
        and counters are the *entire* deduction-graph state; everything
        else (static component decomposition, cursors, dirty sets) is
        either rebuilt from the order or a recoverable cache.  Arrays ship
        as base64 over explicit little-endian dtypes, keeping the payload
        JSON-serializable for the journal.
        """
        import base64

        import numpy

        def b64(arr, dtype) -> str:
            data = numpy.ascontiguousarray(numpy.asarray(arr), dtype=dtype)
            return base64.b64encode(data.tobytes()).decode("ascii")

        pos_of = self._pos_of
        return {
            "kind": VECTOR_SNAPSHOT_KIND,
            "n_universe": self.n_universe,
            "n_pairs": len(self.pairs),
            "parent": b64(self._parent, "<i4"),
            "size": b64(self._size, "<i4"),
            "seen": b64(self._seen, "|b1"),
            "label_code": b64(self._label_code, "|i1"),
            "excluded": b64(self._excluded, "|b1"),
            "withheld": b64(self._withheld, "|b1"),
            # The nm adjacency packs as three parallel columns (sorted
            # roots, per-root neighbour counts, flattened sorted
            # neighbours): one b64 string per column keeps the JSON line
            # flat and lets restore rebuild the dict from C-speed slices.
            # If the adjacency is still in packed form from a restore it
            # round-trips untouched.
            "nm": (
                self._nm_packed
                if self._nm_store is None
                else _pack_adjacency(self._nm_store, b64)
            ),
            "counters": [
                self._n_objects,
                self._n_clusters,
                self._n_matching_edges,
                self._n_non_matching_edges,
            ],
            "conflicts": [
                [pos_of[c.pair], LABEL_CODE[c.label], LABEL_CODE[c.implied]]
                for c in self.conflicts
            ],
        }

    def restore_arrays(self, payload: dict) -> bool:
        """Load a :meth:`snapshot_arrays` payload into this (fresh) core.

        Returns False — leaving the core untouched — when the payload is
        not this encoding or was taken over a different order shape, so
        callers can fall back to per-record replay.  Dirty sets are reset
        conservatively (every live root with pending pairs re-sweeps,
        every component recomputes its first frontier), which preserves
        the sweep/frontier contracts without serializing cache state.
        """
        if payload.get("kind") != VECTOR_SNAPSHOT_KIND:
            return False
        if payload.get("n_universe") != self.n_universe or payload.get(
            "n_pairs"
        ) != len(self.pairs):
            return False
        import base64

        import numpy

        def arr(key: str, dtype, native_dtype, n: int):
            data = numpy.frombuffer(base64.b64decode(payload[key]), dtype=dtype)
            if data.shape[0] != n:
                raise ValueError(
                    f"vectorized snapshot field {key!r} has {data.shape[0]} "
                    f"elements, expected {n}"
                )
            return self._xp.asarray(data.astype(native_dtype))

        n, m = self.n_universe, len(self.pairs)
        self._parent = arr("parent", "<i4", numpy.int64, n)
        self._size = arr("size", "<i4", numpy.int64, n)
        self._seen = arr("seen", "|b1", bool, n)
        self._label_code = arr("label_code", "|i1", numpy.int8, m)
        self._excluded = arr("excluded", "|b1", bool, m)
        self._withheld = arr("withheld", "|b1", bool, m)
        self._nm_store = None
        self._nm_packed = payload["nm"]
        (
            self._n_objects,
            self._n_clusters,
            self._n_matching_edges,
            self._n_non_matching_edges,
        ) = (int(value) for value in payload["counters"])
        self.conflicts = [
            Conflict(self.pairs[pos], LABEL_OF_CODE[label], LABEL_OF_CODE[implied])
            for pos, label, implied in payload["conflicts"]
        ]
        if self._comp_positions is not None:
            self._nm_label_comps = {
                int(comp)
                for comp in numpy.asarray(self._comp_of_pair)[
                    numpy.asarray(self._label_code) == LABEL_CODE[Label.NON_MATCHING]
                ].tolist()
            }
            self._frontier_dirty = set(self._comp_positions)
        else:
            # The decomposition hasn't been forced yet: leave it lazy
            # (restores of finished campaigns never need it) and let
            # _ensure_components derive the nm/dirty sets on first use.
            self._nm_label_comps = set()
            self._frontier_dirty = set()
            self._frontier_all_dirty = True
        # Re-key the pending lists under the restored union-find and dirty
        # every live root: the snapshot carries no cache state, so the
        # first sweep re-derives whatever was deducible-but-unswept.
        xp = self._xp
        pending = xp.nonzero(self._label_code == CODE_UNLABELED)[0].astype(xp.int64)
        self._rebuild_root_pending(pending)
        self._sweep_dirty = set(self._root_pending)
        self._cursors = {}
        self._selected = {}
        self._merged = None
        return True
