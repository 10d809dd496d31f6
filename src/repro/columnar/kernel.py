"""The columnar epistemic kernel: bulk-array Knows / E^k / C_G.

This is the one ~_p index of a :class:`~repro.model.system.System`,
built lazily by ``System.columnar_kernel()``.  Following Halpern-Moses,
~_p is an equivalence, so the index is organized by class, as flat
arrays over the global point numbering (point ``(runs[i], m)`` has id
``base[i] + m``):

* ``crash rows``  -- one int crash bitmask per point (bit j = process j
  crashed), taken verbatim from ``Run.crash_masks``;
* ``history ids`` -- each point's local history hash-consed to a trie
  node id; structural History equality == node id equality, so the
  per-process ~_p classes are exactly the distinct node ids;
* ``class tables`` -- per process: a dense ``point -> class`` row
  (classes numbered globally across processes, first-occurrence order
  within each process) and a CSR layout (``class_points_csr`` /
  ``class_offsets_csr`` / ``class_sizes``) of the members of every
  class, in ascending point-id order;
* ``known masks`` -- per class, the AND of its members' crash rows
  (= {q : K_p crash(q)}), computed in one ``bitwise_and.reduceat``.

One E_G step is then four array operations *total* (gather members,
segment-AND per class, gather per point, AND across the group)
instead of a Python loop over classes, and the C_G greatest fixpoint
iterates that step on a boolean point vector.  Without numpy the same
sweeps run over Python-int bitsets, one per class -- identical results.

Point sets cross the kernel boundary as an opaque ``PointSet`` (numpy
bool vector or int bitset); callers use :meth:`ColumnarKernel.full_set`,
``intersect``, ``sets_equal`` and ``iter_point_ids`` rather than
touching the representation.  The same sets carry formula evaluation
(:class:`~repro.knowledge.semantics.ModelChecker`), one primitive per
node kind:

* history atoms -- per (run, process) timeline, the suffix of points
  from the first matching event on, clamped at the run's duration;
* Box / Diamond -- a per-run suffix scan over the run's point segment;
* K_p -- the class-wise reduction plus broadcast of the E_G step;
* Boolean connectives -- bit operations.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.columnar.arena import RunArena, encode_runs, extend_arena
from repro.model.events import ProcessId
from repro.model.history import History
from repro.model.run import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.system import System

# numpy is optional, and this is the only module that looks for it.  A
# kernel reads ``_np`` once, when it is built, and keeps that path.
try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except Exception:  # pragma: no cover - the no-numpy leg
    _np = None  # type: ignore[assignment]

#: Opaque point-set representation: numpy bool[P] or a Python int bitset.
PointSet = Any

#: Crash-mask rows use one int64 lane per point, so vectorized mask work
#: needs the process count to fit in the non-sign bits.
_MASK_LANE_BITS = 62


def build_kernel(system: "System") -> "ColumnarKernel":
    """Encode ``system.runs`` and derive the columnar index."""
    return ColumnarKernel(system)


class ColumnarKernel:
    """Flat-array ~_p index over one :class:`~repro.model.system.System`."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.np = _np
        self.arena: RunArena = encode_runs(system.runs, processes=system.processes)
        self.n = len(system.processes)
        self.point_total = system.point_count
        # Per-point crash bitmask rows (Python ints; mirrored into an
        # int64 vector when numpy is active and the masks fit a lane).
        crash_rows: list[int] = []
        for run in system.runs:
            crash_rows.extend(run.crash_masks())
        self.crash_rows: list[int] = crash_rows
        np = self.np
        self.crash_mask_rows = (
            np.asarray(crash_rows, dtype=np.int64)
            if np is not None and self.n <= _MASK_LANE_BITS
            else None
        )
        self._build_class_tables()
        self._init_lazy_caches()
        st = system.stats
        st.arena_builds += 1
        st.arena_classes += self.total_classes
        st.arena_bytes += self.arena.nbytes

    @classmethod
    def refined(cls, base: "ColumnarKernel", system: "System") -> "ColumnarKernel":
        """Extend ``base``'s index to ``system`` by incremental class refinement.

        ``system.runs`` must start with ``base.system.runs``; the suffix
        is the freshly ingested batch.  The appended runs are encoded
        into an extended arena (:func:`extend_arena`), walked through
        the trie, and the per-process class tables are re-derived from
        the extended segments -- the shared-prefix runs are never
        re-encoded, their events never re-hashed, their histories never
        re-walked.

        Bit-identity contract: the trie assigns one node per distinct
        history regardless of insertion order, and class ids are
        assigned in per-process first-occurrence order over the run
        sequence -- the same order a from-scratch ``build_kernel(system)``
        uses -- so every derived table (point->class rows, CSR members,
        sizes, known masks) and therefore every query answer is
        bit-identical to a full rebuild over the union.

        Trie sharing: when the batch introduces no new event types the
        base kernel's trie dict is extended in place -- the extra nodes
        are invisible to the base kernel, whose class tables simply do
        not mention them.  When the alphabet grows, the key stride
        (``node * stride + event_id``) changes, so the trie is re-keyed
        into a fresh dict (node ids preserved) and the base kernel's
        dict is left untouched.
        """
        n_old = len(base.system.runs)
        runs = system.runs
        if runs[:n_old] != base.system.runs:
            raise ValueError("refined(): system.runs must extend base.system.runs")
        if system.processes != base.system.processes:
            raise ValueError("refined(): process tuples differ")
        added = runs[n_old:]
        self = cls.__new__(cls)
        self.system = system
        self.np = _np
        self.arena = extend_arena(base.arena, added)
        self.n = base.n
        self.point_total = system.point_count
        crash_rows = list(base.crash_rows)
        for run in added:
            crash_rows.extend(run.crash_masks())
        self.crash_rows = crash_rows
        np = self.np
        self.crash_mask_rows = (
            np.asarray(crash_rows, dtype=np.int64)
            if np is not None and self.n <= _MASK_LANE_BITS
            else None
        )
        old_stride = base._trie_stride
        new_stride = len(self.arena.events) + 1
        if new_stride == old_stride:
            self._trie = base._trie
        else:
            self._trie = {
                (key // old_stride) * new_stride + key % old_stride: node
                for key, node in base._trie.items()
            }
        self._trie_stride = new_stride
        self._event_id_table = None
        # Copy-on-extend the per-process segment state, then walk only
        # the appended runs; class numbering continues where the base
        # kernel's first-occurrence order left off.
        self._seg_nodes = [list(seg) for seg in base._seg_nodes]
        self._seg_counts = [list(seg) for seg in base._seg_counts]
        self._node_to_cid = [dict(table) for table in base._node_to_cid]
        self._seg_cids = [list(seg) for seg in base._seg_cids]
        new_nodes, new_counts = self._history_rows(first_run=base.arena.n_runs)
        for j in range(self.n):
            self._seg_nodes[j].extend(new_nodes[j])
            self._seg_counts[j].extend(new_counts[j])
            table = self._node_to_cid[j]
            setdefault = table.setdefault
            self._seg_cids[j].extend(
                setdefault(nd, len(table)) for nd in new_nodes[j]
            )
        self._derive_tables()
        self._init_lazy_caches()
        st = system.stats
        st.arena_refinements += 1
        st.arena_classes += self.total_classes
        st.arena_bytes += self.arena.nbytes
        return self

    def _init_lazy_caches(self) -> None:
        # Lazy per-class caches serving the System-level API.
        self._known_masks_cache: list[int] | None = None
        self._points_cache: dict[int, list[Point]] = {}
        self._known_set_cache: dict[int, frozenset[ProcessId]] = {}
        self._count_cache: dict[tuple[int, int], int] = {}
        self._count_tables: dict[int, list[int]] = {}
        self._class_bits_int: list[int] | None = None
        self._singletons: list[History] | None = None
        self._atom_sets: dict[tuple[int, tuple[int, ...]], PointSet] = {}

    # -- index construction --------------------------------------------------

    def _history_rows(
        self, first_run: int = 0
    ) -> tuple[list[list[int]], list[list[int]]]:
        """Hash-cons every point's local history into trie node ids.

        Returns per-process ``(nodes, counts)`` run-length segments: for
        process ``j``, repeating ``nodes[j][k]`` ``counts[j][k]`` times
        yields the node id of each point in point-id order.  Events past
        a run's duration never enter any cut, so the walk clamps there.

        The walk runs entirely over the arena's int columns -- event
        identity was already resolved to alphabet ids by ``encode_runs``,
        so no event object is hashed again here.

        ``first_run`` restricts the walk to runs from that index on (the
        incremental-refinement path); node ids for fresh histories
        continue from ``len(trie) + 1``, which is always the next free
        id because every insertion adds exactly one trie entry.
        """
        arena = self.arena
        n = self.n
        durs, offs = arena.run_durations, arena.tl_offsets
        times, eids = arena.tl_times, arena.tl_events
        # The trie is one flat int-keyed dict (node * stride + event id
        # -> child node): int keys hash trivially and no per-node child
        # dict is ever allocated.
        stride = self._trie_stride
        trie = self._trie
        trie_get = trie.get
        next_node = len(trie) + 1
        seg_nodes: list[list[int]] = []
        seg_counts: list[list[int]] = []
        n_runs = arena.n_runs
        for j in range(n):
            nodes: list[int] = []
            counts: list[int] = []
            nodes_append = nodes.append
            counts_append = counts.append
            for i in range(first_run, n_runs):
                dur = durs[i]
                node = 0
                prev = 0
                row = i * n + j
                start, stop = offs[row], offs[row + 1]
                # Clamp to the duration up front (strictly increasing
                # times): the walk below then needs no per-event check.
                cut = bisect_right(times, dur, start, stop)
                for t, eid in zip(times[start:cut], eids[start:cut]):
                    if t > prev:
                        nodes_append(node)
                        counts_append(t - prev)
                        prev = t
                    key = node * stride + eid
                    nxt = trie_get(key)
                    if nxt is None:
                        nxt = trie[key] = next_node
                        next_node += 1
                    node = nxt
                nodes_append(node)
                counts_append(dur + 1 - prev)
            seg_nodes.append(nodes)
            seg_counts.append(counts)
        return seg_nodes, seg_counts

    def _build_class_tables(self) -> None:
        self._trie: dict[int, int] = {}
        self._trie_stride = len(self.arena.events) + 1
        # event object -> alphabet id, built lazily: only foreign-history
        # walks need it, and hashing the alphabet is not free.
        self._event_id_table: dict[Any, int] | None = None
        seg_nodes, seg_counts = self._history_rows()
        self._seg_nodes = seg_nodes
        self._seg_counts = seg_counts
        # Classes are numbered in first-occurrence order over the run
        # sequence.  The per-process node -> local class id
        # tables persist past the build so :meth:`refined` can continue
        # the numbering exactly where this build left off.
        self._node_to_cid: list[dict[int, int]] = []
        self._seg_cids: list[list[int]] = []
        for j in range(self.n):
            table: dict[int, int] = {}
            setdefault = table.setdefault
            self._seg_cids.append(
                [setdefault(nd, len(table)) for nd in seg_nodes[j]]
            )
            self._node_to_cid.append(table)
        self._derive_tables()

    def _derive_tables(self) -> None:
        """Expand the segment state into the dense and CSR class tables.

        Pure function of ``_seg_cids`` / ``_seg_counts`` /
        ``_node_to_cid``: the fresh build and the incremental refinement
        both land here, which is what makes refined tables bit-identical
        to rebuilt ones.  Segments are few, so the numbering runs over
        segments in Python and only the per-point expansion is
        vectorized.
        """
        np = self.np
        P = self.point_total
        self.class_base: list[int] = []
        #: per process: trie node id -> global class id (built on demand:
        #: only foreign-history walks consult it)
        self._node_class: list[dict[int, int] | None] = [None] * self.n
        total = 0
        if np is not None:
            pc_rows = np.empty((self.n, P), dtype=np.int64)
            member_parts = []
            size_parts = []
            for j in range(self.n):
                cids = np.asarray(self._seg_cids[j], dtype=np.int64)
                counts = np.asarray(self._seg_counts[j], dtype=np.int64)
                n_cls = len(self._node_to_cid[j])
                local = np.repeat(cids, counts)
                pc_rows[j] = local + total
                sizes_j = np.zeros(n_cls, dtype=np.int64)
                np.add.at(sizes_j, cids, counts)
                size_parts.append(sizes_j)
                member_parts.append(np.argsort(local, kind="stable"))
                self.class_base.append(total)
                total += n_cls
            self.point_class_rows = pc_rows
            self.class_points_csr = np.concatenate(member_parts)
            sizes = np.concatenate(size_parts).astype(np.int64, copy=False)
            self.class_sizes = sizes
            offsets = np.empty(total + 1, dtype=np.int64)
            offsets[0] = 0
            np.cumsum(sizes, out=offsets[1:])
            self.class_offsets_csr = offsets
            self.total_classes = total
        else:
            pc_rows_l: list[list[int]] = []
            members_flat: list[int] = []
            sizes_l: list[int] = []
            offsets_l: list[int] = [0]
            for j in range(self.n):
                n_cls = len(self._node_to_cid[j])
                members: list[list[int]] = [[] for _ in range(n_cls)]
                local_row: list[int] = []
                pid = 0
                for cid, cnt in zip(self._seg_cids[j], self._seg_counts[j]):
                    bucket = members[cid]
                    gcid = cid + total
                    for _ in range(cnt):
                        bucket.append(pid)
                        local_row.append(gcid)
                        pid += 1
                pc_rows_l.append(local_row)
                for bucket in members:
                    members_flat.extend(bucket)
                    sizes_l.append(len(bucket))
                    offsets_l.append(len(members_flat))
                self.class_base.append(total)
                total += n_cls
            self.point_class_rows = pc_rows_l
            self.class_points_csr = members_flat
            self.class_sizes = sizes_l
            self.class_offsets_csr = offsets_l
            self.total_classes = total

    @property
    def known_masks(self) -> list[int]:
        """Per-class crash-knowledge masks, built on first query.

        Kept out of the index build: systems that never ask a crash
        query never pay for the masks.
        """
        masks = self._known_masks_cache
        if masks is None:
            np = self.np
            if (
                np is not None
                and self.crash_mask_rows is not None
                and self.total_classes
            ):
                known = np.bitwise_and.reduceat(
                    self.crash_mask_rows[self.class_points_csr],
                    self.class_offsets_csr[:-1],
                )
                masks = known.tolist()
            else:
                masks = self._known_masks_fallback(self._csr_slices_list())
            self._known_masks_cache = masks
        return masks

    def _csr_slices_list(self) -> list[tuple[int, int]]:
        offsets = self.class_offsets_csr
        if self.np is not None and not isinstance(offsets, list):
            offsets = offsets.tolist()
        return [
            (offsets[c], offsets[c + 1]) for c in range(self.total_classes)
        ]

    def _known_masks_fallback(
        self, slices: list[tuple[int, int]]
    ) -> list[int]:
        members = self.class_points_csr
        if self.np is not None and not isinstance(members, list):
            members = members.tolist()
        crash = self.crash_rows
        out: list[int] = []
        for start, stop in slices:
            acc = -1
            for k in range(start, stop):
                acc &= crash[members[k]]
            out.append(acc)
        return out

    # -- class lookup --------------------------------------------------------

    def class_ids(self, j: int) -> range:
        """Global class ids of process index ``j``, in first-occurrence order."""
        stop = self.class_base[j + 1] if j + 1 < self.n else self.total_classes
        return range(self.class_base[j], stop)

    def class_of_point(self, j: int, point_id: int) -> int:
        """Global class id of an in-system point for process index ``j``."""
        row = self.point_class_rows[j]
        return int(row[point_id])

    def class_row(self, j: int, start: int, stop: int) -> list[int]:
        """Global class ids of process index ``j`` at point ids ``start``
        up to ``stop`` (exclusive)."""
        row = self.point_class_rows[j][start:stop]
        return row if isinstance(row, list) else row.tolist()

    def _node_class_for(self, j: int) -> dict[int, int]:
        """Trie node id -> global class id for process index ``j``."""
        table = self._node_class[j]
        if table is None:
            base = self.class_base[j]
            table = {
                nd: cid + base for nd, cid in self._node_to_cid[j].items()
            }
            self._node_class[j] = table
        return table

    def class_of_history(self, j: int, history: History) -> int | None:
        """Global class id of an arbitrary local history (None if foreign)."""
        node = 0
        trie = self._trie
        stride = self._trie_stride
        event_ids = self._event_id_table
        if event_ids is None:
            event_ids = {e: i for i, e in enumerate(self.arena.events)}
            self._event_id_table = event_ids
        for event in history.events:
            eid = event_ids.get(event)
            if eid is None:
                return None
            nxt = trie.get(node * stride + eid)
            if nxt is None:
                return None
            node = nxt
        return self._node_class_for(j).get(node)

    def class_id_at(self, process: ProcessId, point: Point) -> int | None:
        """The ~_process class of ``point``; foreign histories give None.

        In-system points resolve through the dense point->class row (no
        history materialization); foreign points fall back to walking
        their local history through the hash-cons trie, so a foreign
        point whose history *does* occur in the system still lands in
        the right class.
        """
        system = self.system
        j = system.process_bit(process)
        pid = system.point_id(point)
        if pid is not None:
            return self.class_of_point(j, pid)
        return self.class_of_history(j, point.history(process))

    def member_point_ids(self, cid: int) -> list[int]:
        """The point ids of class ``cid``, ascending."""
        start = self.class_offsets_csr[cid]
        stop = self.class_offsets_csr[cid + 1]
        members = self.class_points_csr[start:stop]
        if isinstance(members, list):
            return members
        return [int(x) for x in members.tolist()]

    def points_of_class(self, cid: int) -> list[Point]:
        """The member Points of class ``cid`` (cached per class)."""
        pts = self._points_cache.get(cid)
        if pts is None:
            point_at = self.system.point_at
            pts = [point_at(pid) for pid in self.member_point_ids(cid)]
            self._points_cache[cid] = pts
        return pts

    # -- per-class knowledge -------------------------------------------------

    def known_mask(self, cid: int) -> int:
        """AND of the class's crash rows: {q : K_p crash(q)} as a bitmask."""
        return self.known_masks[cid]

    def known_set(self, cid: int) -> frozenset[ProcessId]:
        known = self._known_set_cache.get(cid)
        if known is None:
            mask = self.known_masks[cid]
            procs = self.system.processes
            known = frozenset(
                p for b, p in enumerate(procs) if (mask >> b) & 1
            )
            self._known_set_cache[cid] = known
        return known

    def count_min(self, cid: int, subset_mask: int) -> int:
        """min over the class's points of popcount(crash_row & subset)."""
        key = (cid, subset_mask)
        cached = self._count_cache.get(key)
        if cached is None:
            crash = self.crash_rows
            cached = min(
                (crash[pid] & subset_mask).bit_count()
                for pid in self.member_point_ids(cid)
            )
            self._count_cache[key] = cached
        return cached

    def count_min_table(self, subset_mask: int) -> list[int]:
        """:meth:`count_min` of every class at once, cached per mask.

        The vectorized path counts bits through a 2^n lookup table (any
        numpy version; callers enumerate 2^n subsets anyway, so n is
        small) and takes each class's minimum in one ``reduceat``.
        """
        table = self._count_tables.get(subset_mask)
        if table is None:
            np = self.np
            if (
                np is not None
                and self.crash_mask_rows is not None
                and self.total_classes
            ):
                popcount = np.zeros(1 << self.n, dtype=np.int64)
                for b in range(self.n):
                    popcount[1 << b : 2 << b] = popcount[: 1 << b] + 1
                member_rows = self.crash_mask_rows[self.class_points_csr]
                table = np.minimum.reduceat(
                    popcount[member_rows & subset_mask],
                    self.class_offsets_csr[:-1],
                ).tolist()
            else:
                members = self.class_points_csr
                if self.np is not None and not isinstance(members, list):
                    members = members.tolist()
                crash = self.crash_rows
                table = [
                    min(
                        (crash[members[k]] & subset_mask).bit_count()
                        for k in range(start, stop)
                    )
                    for start, stop in self._csr_slices_list()
                ]
            self._count_tables[subset_mask] = table
        return table

    # -- point sets ----------------------------------------------------------

    def full_set(self) -> PointSet:
        np = self.np
        if np is not None:
            return np.ones(self.point_total, dtype=bool)
        return (1 << self.point_total) - 1

    def empty_set(self) -> PointSet:
        np = self.np
        if np is not None:
            return np.zeros(self.point_total, dtype=bool)
        return 0

    def intersect(self, a: PointSet, b: PointSet) -> PointSet:
        return a & b

    def union(self, a: PointSet, b: PointSet) -> PointSet:
        return a | b

    def complement(self, s: PointSet) -> PointSet:
        if self.np is not None:
            return ~s
        return s ^ ((1 << self.point_total) - 1)

    def sets_equal(self, a: PointSet, b: PointSet) -> bool:
        np = self.np
        if np is not None:
            return bool(np.array_equal(a, b))
        return bool(a == b)

    def contains(self, s: PointSet, point_id: int) -> bool:
        if self.np is not None:
            return bool(s[point_id])
        return bool((s >> point_id) & 1)

    def first_point(self, s: PointSet) -> int | None:
        """The smallest point id in the set, or None if it is empty."""
        if self.np is not None:
            k = int(self.np.argmax(s))
            return k if s[k] else None
        return (s & -s).bit_length() - 1 if s else None

    def iter_point_ids(self, s: PointSet) -> list[int]:
        """The point ids of a set, ascending."""
        np = self.np
        if np is not None:
            return [int(x) for x in np.nonzero(s)[0].tolist()]
        out: list[int] = []
        bits = s
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def set_from_values(self, values: Iterable[bool]) -> PointSet:
        """The set given by one truth value per point id, in id order."""
        return self._from_flags("".join("1" if v else "0" for v in values))

    # Per-run scans work on a set spelled as one '0'/'1' character per
    # point id: slicing and rfind over a run's segment are C-level.

    def _flags(self, s: PointSet) -> str:
        if self.np is not None:
            return (s.astype(self.np.uint8) + 48).tobytes().decode()
        return format(s, "b").zfill(self.point_total)[::-1]

    def _from_flags(self, flags: str) -> PointSet:
        if self.np is not None:
            return self.np.frombuffer(flags.encode(), dtype=self.np.uint8) == 49
        return int(flags[::-1], 2)

    def _spans(self) -> Iterator[tuple[int, int]]:
        """Each run's first point id and point count."""
        start = 0
        for duration in self.arena.run_durations:
            yield start, duration + 1
            start += duration + 1

    def _suffix_set(self, first: Iterable[int]) -> PointSet:
        """The points at time ``first[i]`` or later of every run ``i``."""
        parts: list[str] = []
        for f, (_, n) in zip(first, self._spans()):
            k = min(f, n)
            parts.append("0" * k + "1" * (n - k))
        return self._from_flags("".join(parts))

    def _after_last(self, s: PointSet) -> list[int]:
        """Per run, one past the time of its last point in ``s`` (0 if none)."""
        flags = self._flags(s)
        return [max(flags.rfind("1", a, a + n) + 1 - a, 0) for a, n in self._spans()]

    def _class_bits_list(self) -> list[int]:
        """Fallback representation: each class's member set as an int bitset."""
        bits = self._class_bits_int
        if bits is None:
            bits = []
            for start, stop in self._csr_slices_list():
                acc = 0
                members = self.class_points_csr
                for k in range(start, stop):
                    acc |= 1 << members[k]
                bits.append(acc)
            self._class_bits_int = bits
        return bits

    def class_in_set(self, cid: int | None, s: PointSet) -> bool:
        """Is the class wholly inside the point set?  None = vacuous True."""
        if cid is None:
            return True
        np = self.np
        if np is not None:
            start = int(self.class_offsets_csr[cid])
            stop = int(self.class_offsets_csr[cid + 1])
            return bool(s[self.class_points_csr[start:stop]].all())
        bits = self._class_bits_list()[cid]
        return bits & s == bits

    # -- formula primitives --------------------------------------------------

    def history_atom_set(
        self, j: int, test: Callable[[History], bool]
    ) -> PointSet:
        """The points where process index ``j``'s history passes ``test``.

        ``test`` must hold of a history iff it holds of one of its
        events alone (so histories only ever start passing it): per run
        the set is then the suffix from the timeline's first passing
        event.  Events past the duration never enter a cut.  Cached per
        (process, passing events): callers rebuild equal atoms freely.
        """
        singles = self._singletons
        if singles is None:
            singles = self._singletons = [History((e,)) for e in self.arena.events]
        passing = tuple(eid for eid, h in enumerate(singles) if test(h))
        atom = self._atom_sets.get((j, passing))
        if atom is None:
            arena = self.arena
            offsets, times, eids = arena.tl_offsets, arena.tl_times, arena.tl_events
            wanted = set(passing)
            first: list[int] = []
            for row in range(j, len(offsets) - 1, self.n):
                row_times = range(offsets[row], offsets[row + 1])
                hits = (times[k] for k in row_times if eids[k] in wanted)
                first.append(next(hits, self.point_total))
            atom = self._atom_sets[(j, passing)] = self._suffix_set(first)
        return atom

    def eventually_set(self, s: PointSet) -> PointSet:
        """Diamond: the points with a point of ``s`` at or after them in
        their run (the final cut repeats forever, so a run's last point
        stands for its infinite tail)."""
        return self.complement(self._suffix_set(self._after_last(s)))

    def always_set(self, s: PointSet) -> PointSet:
        """Box: the points from which every point of their run is in ``s``."""
        return self._suffix_set(self._after_last(self.complement(s)))

    def knows_set(self, j: int, s: PointSet) -> PointSet:
        """K_p over a point set: the points whose ~_p class (p = process
        index ``j``) lies wholly inside ``s``."""
        if self.np is not None:
            result: PointSet = self._classes_within(s)[self.point_class_rows[j]]
            return result
        bits_l = self._class_bits_list()
        keep = 0
        for cid in self.class_ids(j):
            b = bits_l[cid]
            if b & s == b:
                keep |= b
        return keep

    def _classes_within(self, s: PointSet) -> Any:
        """numpy only: per class, whether every member is in ``s``."""
        members = s[self.class_points_csr]
        return self.np.logical_and.reduceat(members, self.class_offsets_csr[:-1])

    # -- the E_G step and fixpoints -------------------------------------------

    def e_step(self, members_j: Sequence[int], current: PointSet) -> PointSet:
        """One E_G application over process indexes ``members_j``.

        Keeps exactly the points whose ~_p class is wholly inside
        ``current`` for every p in the group (empty group: all points).
        """
        self.system.stats.ck_fixpoint_iterations += 1
        if not members_j:
            return self.full_set()
        if self.np is not None:
            ok = self._classes_within(current)
            result: PointSet = ok[self.point_class_rows[list(members_j)]].all(axis=0)
            return result
        return reduce(
            self.intersect, [self.knows_set(j, current) for j in members_j]
        )

    def ck_fixpoint(
        self, members_j: Sequence[int], base: PointSet
    ) -> PointSet:
        """Greatest fixpoint of X = E_G(phi and X), starting at [[phi]]."""
        current = base
        while True:
            refined = self.intersect(self.e_step(members_j, current), current)
            if self.sets_equal(refined, current):
                break
            current = refined
        return current
