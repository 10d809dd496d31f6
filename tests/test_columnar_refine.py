"""Incremental class refinement differential: extend == rebuild, bitwise.

The serve subsystem folds streamed-in runs into a live columnar kernel
via :meth:`ColumnarKernel.refined` (reached through
:meth:`System.extend`).  Acceptance pins the refined kernel's *tables*
-- class ids, CSR members, sizes, offsets, crash rows, known masks --
and its *answers* (Knows, E^k, C_G) bit-identical to a kernel built
from scratch over the concatenated run list, under both buffer
backends, across multiple refinement rounds, and when the ingested
runs grow the interned event alphabet (the trie re-key path).
"""

from __future__ import annotations

import random

import pytest

from repro.columnar.arena import COLUMN_FIELDS, encode_runs, extend_arena
from repro.knowledge import Crashed, GroupChecker, Knows, ModelChecker, Not
from repro.model.run import Point
from repro.model.synthetic import synthetic_run, synthetic_system
from repro.model.system import System
from tests.conftest import BACKENDS, kernel_path

#: kernel table attributes that must match a from-scratch rebuild exactly
_TABLE_FIELDS = (
    "class_base",
    "total_classes",
    "crash_rows",
    "point_class_rows",
    "class_points_csr",
    "class_sizes",
    "class_offsets_csr",
)


def _as_lists(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def _assert_tables_equal(refined, rebuilt) -> None:
    for name in _TABLE_FIELDS:
        assert _as_lists(getattr(refined, name)) == _as_lists(
            getattr(rebuilt, name)
        ), f"kernel table {name} diverged from rebuild"
    assert refined.known_masks == rebuilt.known_masks
    assert tuple(refined.arena.events) == tuple(rebuilt.arena.events)
    for name in COLUMN_FIELDS:
        assert getattr(refined.arena, name) == getattr(rebuilt.arena, name), name
    assert refined.arena.metas == rebuilt.arena.metas


def _assert_answers_equal(left: System, right: System) -> None:
    lc, rc = ModelChecker(left), ModelChecker(right)
    lg, rg = GroupChecker(lc), GroupChecker(rc)
    procs = left.processes
    crashed = Crashed(procs[0])
    for run in left.runs:
        for m in range(run.duration + 1):
            pt = Point(run, m)
            for p in procs:
                assert lc.holds(Knows(p, crashed), pt) == rc.holds(
                    Knows(p, crashed), pt
                )
            assert left.known_crashed_set(procs[0], pt) == right.known_crashed_set(
                procs[0], pt
            )
    assert lg.common_knowledge_points(procs, Not(crashed)) == (
        rg.common_knowledge_points(procs, Not(crashed))
    )
    pt0 = Point(left.runs[0], 2)
    assert lg.max_e_depth(procs, Not(crashed), pt0, cap=4) == (
        rg.max_e_depth(procs, Not(crashed), pt0, cap=4)
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("alphabet", [2, 3])
def test_refined_kernel_is_bit_identical_to_rebuild(backend, alphabet) -> None:
    """One ingest round; alphabet=3 grows the event set (trie re-key)."""
    with kernel_path(backend):
        base = System(synthetic_system(3, 5, seed=1, duration=6).runs)
        base.columnar_kernel()
        rng = random.Random(99)
        extra = tuple(
            synthetic_run(base.processes, rng, duration=6, alphabet=alphabet)
            for _ in range(4)
        )
        child = base.extend(extra)
        rebuilt = System(base.runs + extra)
        rebuilt.columnar_kernel()
        refined_kernel = child.columnar_kernel()
        rebuilt_kernel = rebuilt.columnar_kernel()
        if alphabet > 2:
            assert len(refined_kernel.arena.events) > len(
                base.columnar_kernel().arena.events
            ), "alphabet growth case must actually exercise the re-key path"
        _assert_tables_equal(refined_kernel, rebuilt_kernel)
        _assert_answers_equal(child, rebuilt)


@pytest.mark.parametrize("backend", BACKENDS)
def test_multiple_refinement_rounds_chain(backend) -> None:
    """Refinement of a refinement still matches one big rebuild."""
    with kernel_path(backend):
        base = System(synthetic_system(3, 4, seed=7, duration=5).runs)
        base.columnar_kernel()
        rng = random.Random(5)
        current = base
        all_runs = list(base.runs)
        for round_no in range(3):
            batch = tuple(
                synthetic_run(base.processes, rng, duration=5, alphabet=2 + round_no)
                for _ in range(2)
            )
            current = current.extend(batch)
            all_runs.extend(batch)
        rebuilt = System(tuple(all_runs))
        rebuilt.columnar_kernel()
        _assert_tables_equal(current.columnar_kernel(), rebuilt.columnar_kernel())
        _assert_answers_equal(current, rebuilt)
        assert current.stats.arena_refinements == 1  # last hop's child counter
        assert len(current.runs) == len(base.runs) + 6


def test_extend_empty_batch_returns_self() -> None:
    base = System(synthetic_system(2, 3, seed=0, duration=4).runs)
    assert base.extend(()) is base


def test_extend_before_kernel_build_defers_to_lazy_build() -> None:
    """Extending a system that never built its kernel must not refine."""
    base = System(synthetic_system(2, 3, seed=0, duration=4).runs)
    rng = random.Random(1)
    child = base.extend(
        (synthetic_run(base.processes, rng, duration=4),)
    )
    assert child.stats.arena_refinements == 0
    rebuilt = System(child.runs)
    _assert_tables_equal(child.columnar_kernel(), rebuilt.columnar_kernel())


def test_refinement_leaves_base_kernel_untouched() -> None:
    base = System(synthetic_system(3, 4, seed=3, duration=5).runs)
    base.columnar_kernel()
    kernel = base.columnar_kernel()
    before_classes = kernel.total_classes
    before_events = tuple(kernel.arena.events)
    before_trie_len = len(kernel._trie)
    rng = random.Random(2)
    base.extend(
        tuple(
            synthetic_run(base.processes, rng, duration=5, alphabet=3)
            for _ in range(3)
        )
    )
    assert kernel.total_classes == before_classes
    assert tuple(kernel.arena.events) == before_events
    # Alphabet growth forces a re-keyed *copy* of the trie; the base
    # kernel's dict must not have been rewritten underneath it.
    assert len(kernel._trie) == before_trie_len
    _assert_answers_equal(base, System(base.runs))


def test_sibling_refinements_from_one_base_do_not_collide() -> None:
    """Two children extending the same base (shared trie) stay correct."""
    base = System(synthetic_system(3, 4, seed=4, duration=5).runs)
    base.columnar_kernel()
    rng = random.Random(11)
    batch_a = tuple(
        synthetic_run(base.processes, rng, duration=5) for _ in range(2)
    )
    batch_b = tuple(
        synthetic_run(base.processes, rng, duration=5) for _ in range(2)
    )
    child_a = base.extend(batch_a)
    child_b = base.extend(batch_b)
    for child, batch in ((child_a, batch_a), (child_b, batch_b)):
        rebuilt = System(base.runs + batch)
        rebuilt.columnar_kernel()
        _assert_tables_equal(child.columnar_kernel(), rebuilt.columnar_kernel())


def test_refinement_stats_counters() -> None:
    base = System(synthetic_system(2, 3, seed=6, duration=4).runs)
    base.columnar_kernel()
    rng = random.Random(8)
    child = base.extend(
        (synthetic_run(base.processes, rng, duration=4),)
    )
    child.columnar_kernel()
    assert child.stats.arena_refinements == 1
    assert child.stats.arena_builds == 0
    assert base.stats.arena_refinements == 0
    assert base.stats.arena_builds == 1


def test_adopt_columnar_kernel_rejects_misuse() -> None:
    base = System(synthetic_system(2, 3, seed=0, duration=4).runs)
    kernel = base.columnar_kernel()
    other = System(base.runs)
    with pytest.raises(ValueError, match="different system"):
        other.adopt_columnar_kernel(kernel)
    with pytest.raises(ValueError, match="already has"):
        base.adopt_columnar_kernel(kernel)


def test_extend_arena_matches_bulk_encode() -> None:
    """The arena-level primitive: append == encode over concatenation."""
    base_runs = synthetic_system(3, 4, seed=2, duration=5).runs
    rng = random.Random(3)
    extra = tuple(
        synthetic_run(base_runs[0].processes, rng, duration=5, alphabet=3)
        for _ in range(3)
    )
    extended = extend_arena(encode_runs(base_runs), extra)
    bulk = encode_runs(base_runs + extra)
    assert tuple(extended.events) == tuple(bulk.events)
    assert extended.n_runs == bulk.n_runs
    assert extended.metas == bulk.metas
    for name in COLUMN_FIELDS:
        assert getattr(extended, name) == getattr(bulk, name), name


def test_extend_arena_empty_batch_is_identity() -> None:
    arena = encode_runs(synthetic_system(2, 2, seed=0, duration=3).runs)
    assert extend_arena(arena, ()) is arena
