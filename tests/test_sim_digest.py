"""The simulator's output, pinned: one sha256 over a fixed matrix of runs.

``RunCache`` keys a run on its spec alone (DESIGN.md section 7), so any
change to the run a spec produces -- including the order in which the
executor draws from the adversary's rng -- would silently mix old and new
runs in a shared disk cache.  This test fails on any such change.

Runs are encoded with ``run_to_dict``, which sorts sets, so the digest
does not depend on the interpreter's hash seed (``repr`` does not sort
them).  The matrix covers every protocol in ``repro.core.protocols`` and
the consensus baselines; reliable, fair-lossy, partitioned and unfair
channels; every oracle family of ``repro.detectors.standard`` and
``repro.detectors.generalized`` (plus the ATD oracle its protocol needs);
tick-0 and simultaneous crashes; and skipped activations.

A second digest, ``RESEND_DIGEST``, pins what the matrix leaves out: the
suspicion-gossip wrapper, and every retransmitting protocol with a
non-default ``resend_rounds`` or ``resend_interval``.  Its specs stay out of :func:`matrix`, whose 24
specs are also the sampler benchmark's workload.

If a change is *meant* to alter runs, the new digest must come with a
cache-format bump, so that stale entries read as misses.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

from repro.core.consensus import (
    RotatingCoordinatorConsensus,
    StrongConsensusProcess,
    consensus_factory,
)
from repro.core.protocols import (
    AtdUDCProcess,
    GeneralizedFDUDCProcess,
    NUDCProcess,
    ReliableUDCProcess,
    StrongFDUDCProcess,
)
from repro.detectors.atd import AtdRotatingOracle
from repro.detectors.conversions import with_gossip
from repro.detectors.generalized import GeneralizedOracle, TrivialSubsetOracle
from repro.detectors.standard import (
    EventuallyWeakOracle,
    ImpermanentStrongOracle,
    ImpermanentWeakOracle,
    LyingOracle,
    NoisyStrongOracle,
    PerfectOracle,
    ScriptedFalseOracle,
    StrongOracle,
    WeakOracle,
)
from repro.model.context import ChannelSemantics, make_process_ids
from repro.model.run import Run
from repro.model.serialize import run_to_dict
from repro.runtime.spec import RunSpec, spec_digest
from repro.sim.executor import ExecutionConfig, execute
from repro.sim.failures import CrashPlan
from repro.sim.network import ChannelConfig, Partition
from repro.sim.process import uniform_protocol
from repro.workloads.generators import (
    burst_workload,
    post_crash_workload,
    single_action,
)

#: sha256 of the matrix below, recorded before the executor's fault
#: injection hooks were deleted, and re-recorded when rotating-coordinator
#: consensus started its timestamps below round 0 (only
#: ``consensus/rotating`` moved); the executor must reproduce it exactly.
MATRIX_DIGEST = "1a690f24bea110d40603284c97eaf4da342d606ea88a720d9593638327003478"

#: sha256 of :func:`resend_matrix`, recorded while every protocol still
#: wrote its own retransmission loop; re-recorded, every other spec's run
#: unchanged, when the atomic-broadcast specs left the matrix, and again
#: when rotating-coordinator consensus started its timestamps below round
#: 0 (only its four ``consensus/rotating/...`` specs moved).
RESEND_DIGEST = "0dc2d58e960c32eaff8250bf38c5ae807ae63b9c877d73de7012cc14a3475b5b"

P3 = make_process_ids(3)
P4 = make_process_ids(4)
P5 = make_process_ids(5)

FAIR = ExecutionConfig(max_ticks=600)
RELIABLE = ExecutionConfig(
    max_ticks=600, channel=ChannelConfig(semantics=ChannelSemantics.RELIABLE)
)
PARTITIONED = ExecutionConfig(
    max_ticks=600,
    channel=ChannelConfig(partitions=(Partition(2, 14, frozenset({"p1", "p2"})),)),
)
SLOW = ExecutionConfig(max_ticks=600, activation_prob=0.7)
#: Detectors that never settle (the lying control) run to a short cap.
CAPPED = ExecutionConfig(max_ticks=120)


def blackhole_alpha_to_p3(sender: str, receiver: str, message: object) -> bool:
    """Swallow every alpha-message addressed to p3 (an R5 violation)."""
    return receiver == "p3" and getattr(message, "kind", None) == "alpha"


BLACKHOLE = ExecutionConfig(
    max_ticks=600,
    channel=ChannelConfig(
        semantics=ChannelSemantics.UNFAIR, blackhole=blackhole_alpha_to_p3
    ),
    validate=False,
)

ONE = tuple(single_action("p1", tick=1))
BURST = tuple(burst_workload(P4, tick=2))
CONSENSUS_VALUES = {p: f"v{i % 2}" for i, p in enumerate(P4)}


def _spec(processes, protocol, *, crashes=None, workload=ONE, detector=None,
          config=FAIR, seed=0):
    return RunSpec(
        processes,
        protocol,
        crash_plan=CrashPlan.of(crashes or {}),
        workload=workload,
        detector=detector,
        config=config,
        seed=seed,
    )


def matrix() -> list[tuple[str, RunSpec]]:
    """The pinned (name, spec) matrix, in a fixed order."""
    strong_fd = uniform_protocol(StrongFDUDCProcess)
    cases: list[tuple[str, RunSpec]] = []
    for seed in (0, 1):
        cases += [
            (f"nudc/fair/tick0-crash/{seed}",
             _spec(P4, uniform_protocol(NUDCProcess), crashes={"p2": 0}, seed=seed)),
            (f"nudc/fair/initiator-crash/{seed}",
             _spec(P3, uniform_protocol(NUDCProcess), crashes={"p1": 3}, seed=seed)),
            (f"reliable-udc/reliable/simultaneous/{seed}",
             _spec(P4, uniform_protocol(ReliableUDCProcess),
                   crashes={"p2": 4, "p3": 4}, workload=BURST, config=RELIABLE,
                   seed=seed)),
            (f"strong-fd/perfect/burst/{seed}",
             _spec(P4, strong_fd, crashes={"p4": 5}, workload=BURST,
                   detector=PerfectOracle(), seed=seed)),
        ]
    standard = [
        ("strong", StrongOracle()),
        ("weak", WeakOracle()),
        ("impermanent-strong", ImpermanentStrongOracle()),
        ("impermanent-weak", ImpermanentWeakOracle()),
        ("eventually-weak", EventuallyWeakOracle(stabilization_tick=12)),
        ("noisy-strong", NoisyStrongOracle()),
        ("scripted-false", ScriptedFalseOracle(frozenset({"p3"}))),
    ]
    for name, oracle in standard:
        cases.append(
            (f"strong-fd/{name}",
             _spec(P4, strong_fd, crashes={"p2": 3, "p4": 3}, detector=oracle, seed=2))
        )
    cases += [
        ("strong-fd/lying/capped",
         _spec(P3, strong_fd, detector=LyingOracle(), config=CAPPED, seed=3)),
        ("generalized/padded",
         _spec(P4, uniform_protocol(GeneralizedFDUDCProcess, t=1),
               crashes={"p3": 4}, detector=GeneralizedOracle(1, padding=1), seed=4)),
        ("generalized/trivial-subsets",
         _spec(P4, uniform_protocol(GeneralizedFDUDCProcess, t=1),
               crashes={"p4": 0}, detector=TrivialSubsetOracle(1), seed=5)),
        ("atd/rotating",
         _spec(P4, uniform_protocol(AtdUDCProcess), crashes={"p2": 6},
               detector=AtdRotatingOracle(rotation_period=5, stop_after_windows=4),
               seed=6)),
        ("consensus/strong",
         _spec(P4, consensus_factory(StrongConsensusProcess, CONSENSUS_VALUES),
               crashes={"p3": 5}, workload=(), detector=StrongOracle(), seed=7)),
        ("consensus/rotating",
         _spec(P4, consensus_factory(RotatingCoordinatorConsensus, CONSENSUS_VALUES),
               crashes={"p4": 8}, workload=(),
               detector=EventuallyWeakOracle(stabilization_tick=15), seed=8)),
        ("strong-fd/partitioned",
         _spec(P4, strong_fd, crashes={"p3": 9}, detector=PerfectOracle(),
               config=PARTITIONED, seed=9)),
        ("nudc/unfair-blackhole",
         _spec(P3, uniform_protocol(NUDCProcess), config=BLACKHOLE, seed=10)),
        ("strong-fd/activation-0.7",
         _spec(P4, strong_fd, crashes={"p1": 6}, workload=BURST,
               detector=PerfectOracle(), config=SLOW, seed=11)),
    ]
    return cases


CONSENSUS5 = {p: f"v{i % 3}" for i, p in enumerate(P5)}


def resend_matrix() -> list[tuple[str, RunSpec]]:
    """The (name, spec) pairs behind ``RESEND_DIGEST``, in a fixed order."""
    gossip = with_gossip(uniform_protocol(StrongFDUDCProcess))
    gossip_plan = {"p3": 4}
    gossip_workload = tuple(single_action("p1", tick=1)) + tuple(
        post_crash_workload(P4, CrashPlan.of(gossip_plan), actions_per_survivor=1)
    )
    cases: list[tuple[str, RunSpec]] = []
    for seed in (0, 1, 2):
        cases.append(
            (f"gossip/impermanent-weak/fair/{seed}",
             _spec(P4, gossip, crashes=gossip_plan, workload=gossip_workload,
                   detector=ImpermanentWeakOracle(), seed=seed))
        )
    for seed in (0, 1):
        cases += [
            (f"gossip/impermanent-weak/reliable/{seed}",
             _spec(P4, gossip, crashes=gossip_plan, workload=gossip_workload,
                   detector=ImpermanentWeakOracle(), config=RELIABLE, seed=seed)),
            (f"gossip/tight/{seed}",
             _spec(P4, with_gossip(uniform_protocol(StrongFDUDCProcess),
                                   resend_rounds=2, resend_interval=1),
                   crashes=gossip_plan, workload=gossip_workload,
                   detector=ImpermanentWeakOracle(), seed=seed)),
            (f"consensus/strong/resend-20-2/{seed}",
             _spec(P5, consensus_factory(StrongConsensusProcess, CONSENSUS5,
                                         resend_rounds=20, resend_interval=2),
                   crashes={"p2": 6}, workload=(), detector=StrongOracle(),
                   seed=seed)),
            (f"consensus/strong/resend-40-5/reliable/{seed}",
             _spec(P4, consensus_factory(StrongConsensusProcess, CONSENSUS_VALUES,
                                         resend_rounds=40, resend_interval=5),
                   workload=(), detector=StrongOracle(), config=RELIABLE,
                   seed=seed)),
            (f"consensus/rotating/resend-4-5/{seed}",
             _spec(P5, consensus_factory(RotatingCoordinatorConsensus, CONSENSUS5,
                                         resend_rounds=4, resend_interval=5),
                   crashes={"p1": 3, "p4": 9}, workload=(),
                   detector=EventuallyWeakOracle(stabilization_tick=20),
                   seed=seed)),
            (f"consensus/rotating/resend-16-1/reliable/{seed}",
             _spec(P4, consensus_factory(RotatingCoordinatorConsensus,
                                         CONSENSUS_VALUES, resend_rounds=16,
                                         resend_interval=1),
                   crashes={"p2": 5}, workload=(),
                   detector=EventuallyWeakOracle(stabilization_tick=10),
                   config=RELIABLE, seed=seed)),
            (f"nudc/resend-4/{seed}",
             _spec(P4, uniform_protocol(NUDCProcess, resend_rounds=4),
                   crashes={"p3": 2}, workload=BURST, seed=seed)),
            (f"nudc/resend-7-1/reliable/{seed}",
             _spec(P3, uniform_protocol(NUDCProcess, resend_rounds=7,
                                        resend_interval=1),
                   crashes={"p1": 3}, config=RELIABLE, seed=seed)),
            (f"strong-fd/resend-5-2/{seed}",
             _spec(P4, uniform_protocol(StrongFDUDCProcess, resend_rounds=5,
                                        resend_interval=2),
                   crashes={"p4": 4}, workload=BURST, detector=PerfectOracle(),
                   seed=seed)),
            (f"strong-fd/resend-60-6/{seed}",
             _spec(P4, uniform_protocol(StrongFDUDCProcess, resend_rounds=60,
                                        resend_interval=6),
                   crashes={"p2": 3, "p3": 3}, detector=StrongOracle(),
                   seed=seed)),
            (f"reliable-udc/resend-3/{seed}",
             _spec(P4, uniform_protocol(ReliableUDCProcess, resend_rounds=3),
                   crashes={"p2": 4}, workload=BURST, seed=seed)),
            (f"reliable-udc/resend-3/reliable/{seed}",
             _spec(P4, uniform_protocol(ReliableUDCProcess, resend_rounds=3),
                   crashes={"p1": 2}, workload=BURST, config=RELIABLE, seed=seed)),
            (f"reliable-udc/resend-3-1/{seed}",
             _spec(P3, uniform_protocol(ReliableUDCProcess, resend_rounds=3,
                                        resend_interval=1),
                   seed=seed)),
            (f"generalized/resend-6-2/{seed}",
             _spec(P4, uniform_protocol(GeneralizedFDUDCProcess, t=2,
                                        resend_rounds=6, resend_interval=2),
                   crashes={"p3": 4}, workload=BURST,
                   detector=GeneralizedOracle(2), seed=seed)),
            (f"atd/resend-8-4/{seed}",
             _spec(P4, uniform_protocol(AtdUDCProcess, resend_rounds=8,
                                        resend_interval=4),
                   crashes={"p2": 5}, workload=BURST,
                   detector=AtdRotatingOracle(rotation_period=4), seed=seed)),
        ]
    return cases


@lru_cache(maxsize=1)
def matrix_runs() -> tuple[tuple[str, Run], ...]:
    """Every matrix spec executed once (shared with the differential tests)."""
    return tuple((name, execute(spec)) for name, spec in matrix())


def runs_digest(runs) -> str:
    digest = hashlib.sha256()
    for name, run in runs:
        encoded = json.dumps([name, run_to_dict(run)], sort_keys=True)
        digest.update(encoded.encode() + b"\n")
    return digest.hexdigest()


def matrix_digest() -> str:
    return runs_digest(matrix_runs())


def test_matrix_digest_is_pinned():
    assert matrix_digest() == MATRIX_DIGEST


def test_resend_digest_is_pinned():
    runs = [(name, execute(spec)) for name, spec in resend_matrix()]
    assert runs_digest(runs) == RESEND_DIGEST


def test_matrix_covers_what_it_claims():
    runs = dict(matrix_runs())
    assert len(runs) == len(matrix())
    # the unfair channel really violates R5
    assert runs["nudc/unfair-blackhole"].meta["dropped"] > 0
    # a tick-0 crash lands on tick 1; simultaneous crashes share a tick
    assert runs["nudc/fair/tick0-crash/0"].crash_time("p2") == 1
    simultaneous = runs["reliable-udc/reliable/simultaneous/0"]
    assert simultaneous.crash_time("p2") == simultaneous.crash_time("p3") == 4
    assert runs["strong-fd/lying/capped"].meta["hit_tick_cap"]


def test_oracle_templates_digest_as_before_after_use():
    """Executing a spec leaves its oracle as it was: an oracle keeps its
    per-run values (the ATD oracle's ordered correct processes, the weak
    witnesses, the generalized oracle's S) on the run's fresh copy, so
    the spec still digests as before, and as an equal spec built anew."""
    fresh = dict(matrix())
    with_oracle = [(name, spec) for name, spec in matrix() if spec.detector is not None]
    assert len(with_oracle) == 17
    for name, spec in with_oracle:
        before = spec_digest(spec)
        assert before is not None, name
        execute(spec)
        assert spec_digest(spec) == before == spec_digest(fresh[name]), name
