"""Experiments E01-E12 and ablations A13-A15 (DESIGN.md Section 4).

Each function reproduces one claim of the paper -- including the
negative half where the paper asserts necessity (a protocol that should
fail without its detector must be observed failing).  All experiments
are deterministic given their seed lists.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.properties import (
    actions_in,
    dc1,
    dc2,
    nudc_holds,
    udc_holds,
)
from repro.core.protocols import (
    AtdUDCProcess,
    GeneralizedFDUDCProcess,
    NUDCProcess,
    ReliableUDCProcess,
    StrongFDUDCProcess,
)
from repro.core.simulation_theorem import (
    simulate_generalized_detectors,
    simulate_perfect_detectors,
)
from repro.detectors.atd import AtdRotatingOracle
from repro.detectors.base import suspicion_history
from repro.detectors.conversions import (
    convert_impermanent_to_permanent,
    convert_weak_to_strong,
    with_gossip,
)
from repro.detectors.generalized import GeneralizedOracle, TrivialSubsetOracle
from repro.detectors.properties import (
    atd_accuracy,
    generalized_impermanent_strong_completeness,
    generalized_strong_accuracy,
    impermanent_weak_completeness,
    is_perfect,
    strong_accuracy,
    strong_completeness,
    weak_accuracy,
)
from repro.detectors.standard import (
    ImpermanentWeakOracle,
    NoisyStrongOracle,
    PerfectOracle,
    ScriptedFalseOracle,
    StrongOracle,
)
from repro.harness.results import ExperimentResult
from repro.knowledge import ModelChecker
from repro.knowledge.paper_formulas import (
    dc1_formula,
    dc2_formula,
    dc3_formula,
    prop_3_5,
)
from repro.model.context import ChannelSemantics, make_process_ids
from repro.model.events import Message, StandardSuspicion
from repro.model.run import r5_violations
from repro.model.system import System
from repro.runtime import EnsembleSpec, RunSpec, run_ensemble, run_spec
from repro.sim.executor import ExecutionConfig, Executor
from repro.sim.failures import CrashPlan, staggered_plan
from repro.sim.network import ChannelConfig
from repro.sim.process import uniform_protocol
from repro.workloads.generators import (
    post_crash_workload,
    single_action,
)

RELIABLE = ExecutionConfig(channel=ChannelConfig(semantics=ChannelSemantics.RELIABLE))
FAIR = ExecutionConfig()  # fair-lossy defaults


# ---------------------------------------------------------------------------
# E01: Proposition 2.3 -- nUDC, fair channels, no detector, unbounded failures
# ---------------------------------------------------------------------------


def run_e01(n: int = 4, seeds: Sequence[int] = (0, 1, 2)) -> ExperimentResult:
    """Prop 2.3: nUDC under fair-lossy channels without detectors."""
    result = ExperimentResult(
        "E01",
        "nUDC without failure detectors (Prop 2.3)",
        "nUDC (DC1, DC2', DC3) is attainable under fair-lossy channels with "
        "no detector and no bound on failures; full UDC is not.",
        passed=True,
    )
    procs = make_process_ids(n)
    # The default run cache: E13 rebuilds this ensemble's t=1 part.
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(NUDCProcess),
            t=n,  # unbounded: every subset may fail
            workload=single_action("p1", tick=1),
            seeds=seeds,
        ),
    ).system()
    ok = sum(1 for r in system if nudc_holds(r))
    result.row("runs", len(system))
    result.require(ok == len(system), f"DC1 & DC2' & DC3 in all runs ({ok}/{len(system)})")

    # The negative half: the same protocol does NOT give uniform DC2 --
    # an initiator that performs and crashes before its messages survive
    # leaves the correct processes empty-handed.  Force it with a crash
    # right after the init and a very lossy channel.
    lossy = FAIR.with_channel(drop_prob=0.8, max_consecutive_drops=8)
    probe = RunSpec(
        processes=procs,
        protocol=uniform_protocol(NUDCProcess),
        crash_plan=CrashPlan.of({"p1": 4}),
        workload=single_action("p1", tick=1),
        config=lossy,
    )
    report = run_ensemble([probe.with_(seed=seed) for seed in range(8)])
    violations = 0
    for run in report.runs:
        action = next(iter(actions_in(run)), None)
        if action is not None and not dc2(run, action):
            violations += 1
    result.row("uniform-DC2 violations with early crash", f"{violations}/8")
    result.require(violations > 0, "non-uniformity witnessed (DC2 fails somewhere)")
    result.details.update(runs=len(system), dc2_violations=violations)
    return result


# ---------------------------------------------------------------------------
# E02: Proposition 2.4 -- UDC, reliable channels, no detector
# ---------------------------------------------------------------------------


def run_e02(n: int = 4, seeds: Sequence[int] = (0, 1, 2)) -> ExperimentResult:
    """Prop 2.4: UDC over reliable channels without detectors."""
    result = ExperimentResult(
        "E02",
        "UDC over reliable channels without detectors (Prop 2.4)",
        "UDC is attainable with reliable channels, no detector, unbounded "
        "failures; the same protocol fails under fair-lossy channels.",
        passed=True,
    )
    procs = make_process_ids(n)
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(ReliableUDCProcess),
            t=n,
            workload=single_action("p1", tick=1),
            seeds=seeds,
            config=RELIABLE,
        ),
        cache=None,
    ).system()
    ok = sum(1 for r in system if udc_holds(r))
    result.row("runs (reliable)", len(system))
    result.require(ok == len(system), f"DC1-DC3 in all runs ({ok}/{len(system)})")

    # Necessity of reliability (Table 1, unreliable/no-FD cell): the
    # one-shot protocol loses its single copies on a lossy channel when
    # the performer crashes.
    lossy = FAIR.with_channel(drop_prob=0.8, max_consecutive_drops=8)
    probe = RunSpec(
        processes=procs,
        protocol=uniform_protocol(ReliableUDCProcess),
        crash_plan=CrashPlan.of({"p1": 5}),
        workload=single_action("p1", tick=1),
        config=lossy,
    )
    report = run_ensemble([probe.with_(seed=seed) for seed in range(8)])
    violations = sum(1 for run in report.runs if not udc_holds(run))
    result.row("UDC violations on fair-lossy", f"{violations}/8")
    result.require(violations > 0, "reliable channels are load-bearing")
    result.details.update(runs=len(system), lossy_violations=violations)
    return result


# ---------------------------------------------------------------------------
# E03: Proposition 3.1 -- UDC with strong detectors, fair channels
# ---------------------------------------------------------------------------


def run_e03(n: int = 4, seeds: Sequence[int] = (0, 1, 2)) -> ExperimentResult:
    """Prop 3.1: UDC with strong detectors over fair-lossy channels."""
    result = ExperimentResult(
        "E03",
        "UDC with strong failure detectors (Prop 3.1)",
        "UDC is attainable under fair-lossy channels with a strong detector "
        "(weak accuracy + strong completeness), unbounded failures.",
        passed=True,
    )
    procs = make_process_ids(n)
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(StrongFDUDCProcess),
            t=n,
            workload=lambda plan: single_action("p1", tick=1)
            + post_crash_workload(procs, plan, actions_per_survivor=1),
            detector=StrongOracle(),
            seeds=seeds,
        ),
        cache=None,
    ).system()
    ok = sum(1 for r in system if udc_holds(r))
    result.row("runs", len(system))
    result.require(ok == len(system), f"DC1-DC3 in all runs ({ok}/{len(system)})")
    # Sanity: the oracle really is strong (not secretly perfect).
    falsely = sum(1 for r in system if not strong_accuracy(r))
    accuracy = all(weak_accuracy(r) for r in system)
    completeness = all(strong_completeness(r) for r in system)
    result.row("runs with false suspicions", f"{falsely}/{len(system)}")
    result.require(falsely > 0, "detector is strong, not perfect")
    result.require(accuracy, "weak accuracy in all runs")
    result.require(completeness, "strong completeness in all runs")
    result.details.update(runs=len(system), false_runs=falsely)
    return result


# ---------------------------------------------------------------------------
# E04: Corollary 3.2 + Propositions 2.1/2.2 -- conversions
# ---------------------------------------------------------------------------


def run_e04(n: int = 4, seeds: Sequence[int] = (0, 1)) -> ExperimentResult:
    """Cor 3.2 + Props 2.1/2.2: conversions from impermanent-weak detectors."""
    result = ExperimentResult(
        "E04",
        "Impermanent-weak detectors suffice via conversions (Cor 3.2)",
        "Gossiping suspicions converts weak completeness to strong "
        "(Prop 2.1); remembering reports converts impermanent to "
        "permanent (Prop 2.2); accuracy is preserved and UDC follows.",
        passed=True,
    )
    procs = make_process_ids(n)
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            with_gossip(uniform_protocol(StrongFDUDCProcess)),
            t=n - 1,
            workload=lambda plan: single_action("p1", tick=1)
            + post_crash_workload(procs, plan, actions_per_survivor=1),
            detector=ImpermanentWeakOracle(),
            seeds=seeds,
        ),
        cache=None,
    ).system()
    result.row("runs", len(system))
    ok = sum(1 for r in system if udc_holds(r))
    result.require(
        ok == len(system), f"UDC with impermanent-weak detector ({ok}/{len(system)})"
    )
    # The original detector is genuinely impermanent-weak...
    original_weak = all(impermanent_weak_completeness(r) for r in system)
    original_not_strong = sum(1 for r in system if not strong_completeness(r))
    result.require(original_weak, "original: impermanent weak completeness")
    with_failures = sum(1 for r in system if r.faulty())
    result.row("runs with failures", f"{with_failures}/{len(system)}")
    result.require(
        original_not_strong > 0, "original: strong completeness fails somewhere"
    )
    # ... and the converted one is strong-complete with accuracy preserved.
    converted = [
        convert_impermanent_to_permanent(convert_weak_to_strong(r)) for r in system
    ]
    conv_complete = all(strong_completeness(r, derived=True) for r in converted)
    conv_accurate = all(weak_accuracy(r, derived=True) for r in converted)
    result.require(conv_complete, "converted: strong completeness")
    result.require(conv_accurate, "converted: weak accuracy preserved")
    result.details.update(runs=len(system))
    return result


# ---------------------------------------------------------------------------
# E05: Proposition 3.4 -- weak accuracy == strong accuracy under A1 + A5_{n-1}
# ---------------------------------------------------------------------------


def run_e05(n: int = 4) -> ExperimentResult:
    """Prop 3.4: weak accuracy = strong accuracy under A1 + A5_{n-1}."""
    result = ExperimentResult(
        "E05",
        "Weak accuracy = strong accuracy under A1 + A5_{n-1} (Prop 3.4)",
        "Any false suspicion extends (A1) to a run where everyone but the "
        "suspect crashes, violating weak accuracy there; so a weakly "
        "accurate detector over an A1+A5-closed system is strongly accurate.",
        passed=True,
    )
    procs = make_process_ids(n)
    workload = single_action("p1", tick=1) + single_action("p2", tick=12, name="b0")

    def execute(detector, plan, seed):
        return Executor(
            procs,
            uniform_protocol(StrongFDUDCProcess),
            crash_plan=plan,
            workload=workload,
            detector=detector,
            seed=seed,
        ).run()

    # 1. A weakly-but-not-strongly accurate oracle whose behaviour does
    #    not consult the crash plan, so executions replay exactly across
    #    plans (the operational content of A1).  It falsely suspects the
    #    last process; the others are never suspected while correct.
    suspect_target = procs[-1]
    oracle = ScriptedFalseOracle(frozenset({suspect_target}))
    found = None
    for seed in range(12):
        plan = CrashPlan.of({"p3": 8})
        run = execute(oracle, plan, seed)
        for p in procs:
            for tick, report in suspicion_history(run, p):
                if not isinstance(report, StandardSuspicion):
                    continue
                for q in report.suspects:
                    if not run.crashed_by(q, tick) and q not in plan.faulty:
                        found = (seed, plan, p, q, tick, run)
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    result.require(found is not None, "a false suspicion exists (weak != strong here)")
    if found is None:
        return result
    seed, plan, p, q, tick, run = found
    result.row("false suspicion", f"{p} suspects live {q} at t={tick}")
    result.require(bool(weak_accuracy(run)), "weak accuracy holds in the base run")

    # 2. The A1 extension: replay the same seed with everyone except q
    #    crashing right after the suspicion.  Identical adversary prefix
    #    => a genuine extension of (r, tick).
    extension_crashes = dict(plan.as_dict())
    for other in procs:
        if other != q and other not in extension_crashes:
            extension_crashes[other] = tick + 1
    ext = execute(oracle, CrashPlan.of(extension_crashes), seed)
    agrees = all(
        ext.history(pp, tick) == run.history(pp, tick) for pp in procs
    )
    result.require(agrees, "replayed run extends the original point (A1 witness)")
    result.row("extension F(r')", f"{sorted(ext.faulty())}")
    result.require(
        ext.correct() == frozenset({q}), "the suspect is the sole correct process"
    )
    result.require(
        not weak_accuracy(ext), "weak accuracy is violated in the extension"
    )

    # 3. Control: a perfect oracle has no false suspicions, so weak and
    #    strong accuracy coincide over the whole A5 ensemble.
    ensemble = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(StrongFDUDCProcess),
            t=n - 1,
            workload=workload,
            detector=PerfectOracle(),
            seeds=(0, 1),
        ),
        cache=None,
    ).system()
    equivalence = all(
        bool(weak_accuracy(r)) == bool(strong_accuracy(r)) for r in ensemble
    )
    strong_all = all(strong_accuracy(r) for r in ensemble)
    result.require(
        equivalence and strong_all,
        "perfect oracle: weak and strong accuracy coincide over A5 ensemble",
    )
    return result


# ---------------------------------------------------------------------------
# E06: Theorem 3.6 -- simulating perfect detectors from a UDC system
# ---------------------------------------------------------------------------


def run_e06(n: int = 4, seeds: Sequence[int] = (0, 1)) -> ExperimentResult:
    """Thm 3.6: UDC systems simulate perfect failure detectors."""
    result = ExperimentResult(
        "E06",
        "UDC systems simulate perfect failure detectors (Thm 3.6)",
        "Transform f (P1-P3) over a UDC-attaining ensemble satisfying "
        "A5_{n-1} with post-crash initiations yields derived detectors "
        "with strong accuracy AND strong completeness.",
        passed=True,
    )
    procs = make_process_ids(n)
    # The default run cache: A17 rebuilds this ensemble.
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(StrongFDUDCProcess),
            t=n - 1,
            workload=lambda plan: post_crash_workload(procs, plan, actions_per_survivor=2),
            detector=PerfectOracle(),
            seeds=seeds,
        ),
    ).system()
    result.row("ensemble size", len(system))
    result.require(
        all(udc_holds(r) for r in system), "the ensemble attains UDC"
    )
    rf = simulate_perfect_detectors(system)
    acc = sum(1 for r in rf if strong_accuracy(r, derived=True))
    comp = sum(1 for r in rf if strong_completeness(r, derived=True))
    result.require(acc == len(rf), f"R^f strong accuracy ({acc}/{len(rf)})")
    result.require(comp == len(rf), f"R^f strong completeness ({comp}/{len(rf)})")
    perfect = sum(1 for r in rf if is_perfect(r, derived=True))
    result.row("R^f perfect detector runs", f"{perfect}/{len(rf)}")

    # Ablation: the derived detector's completeness is knowledge, and
    # knowledge is relative to the system.  Add a "phantom twin" of a
    # one-failure run -- identical except the crash never happens (the
    # faulty process's history is truncated before its crash event;
    # nobody else's history changes).  Every observer now considers a
    # crash-free point possible wherever it previously knew of the
    # crash, so K_p(crash(q)) -- and with it completeness -- collapses
    # for the twinned run, while accuracy (veridical by construction)
    # still holds everywhere, including in the phantom itself.
    base = next(r for r in system if len(r.faulty()) == 1)
    victim = next(iter(base.faulty()))
    phantom = _phantom_twin(base, victim)
    polluted = System([*system.runs, phantom])
    rf_polluted = simulate_perfect_detectors(polluted)
    pol_acc = all(strong_accuracy(r, derived=True) for r in rf_polluted)
    base_index = list(polluted.runs).index(base)
    base_f = rf_polluted.runs[base_index]
    result.require(pol_acc, "phantom-twin ensemble: accuracy still holds (veridicality)")
    result.require(
        not strong_completeness(base_f, derived=True),
        "phantom-twin ensemble: completeness collapses for the twinned run",
    )
    result.details.update(runs=len(system), acc=acc, comp=comp)
    return result


def _phantom_twin(run, victim):
    """The run with ``victim``'s crash event deleted; all other histories
    identical.  A logically possible (if unfair-looking) run that ruins
    knowledge of the crash."""
    from repro.model.run import Run

    timelines = {p: list(run.timeline(p)) for p in run.processes}
    crash_tick = run.crash_time(victim)
    timelines[victim] = [
        (t, e) for t, e in run.timeline(victim) if t != crash_tick
    ]
    return Run(
        run.processes,
        timelines,
        duration=run.duration,
        meta={**run.meta, "phantom_of": victim},
    )


# ---------------------------------------------------------------------------
# E07: Proposition 4.1 / Corollary 4.2 -- t-useful generalized detectors
# ---------------------------------------------------------------------------


def run_e07(n: int = 5, seeds: Sequence[int] = (0, 1)) -> ExperimentResult:
    """Prop 4.1 / Cor 4.2: t-useful generalized detectors attain UDC."""
    result = ExperimentResult(
        "E07",
        "UDC with t-useful generalized detectors (Prop 4.1, Cor 4.2)",
        "For every t, a t-useful generalized detector attains UDC with "
        "at most t failures; for t < n/2 the trivial (S, 0) detector "
        "suffices (= no detector, Gopal-Toueg); for t >= n/2 it fails.",
        passed=True,
    )
    procs = make_process_ids(n)
    workload = single_action("p1", tick=1) + single_action("p3", tick=10, name="c0")

    for t in range(0, n):
        system = run_ensemble(
            EnsembleSpec.a5t(
                procs,
                uniform_protocol(GeneralizedFDUDCProcess, t=t),
                t=t,
                workload=workload,
                detector=GeneralizedOracle(t, padding=1),
                seeds=seeds,
            ),
            cache=None,
        ).system()
        ok = sum(1 for r in system if udc_holds(r))
        useful = all(
            generalized_strong_accuracy(r)
            and generalized_impermanent_strong_completeness(r, t)
            for r in system
        )
        result.require(
            ok == len(system) and useful,
            f"t={t}: UDC with t-useful oracle ({ok}/{len(system)})",
        )

    # Gopal-Toueg: the trivial subset detector for t < n/2.
    t_small = (n - 1) // 2
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(GeneralizedFDUDCProcess, t=t_small),
            t=t_small,
            workload=workload,
            detector=TrivialSubsetOracle(t_small),
            seeds=seeds,
        ),
        cache=None,
    ).system()
    ok = sum(1 for r in system if udc_holds(r))
    result.require(
        ok == len(system),
        f"t={t_small} < n/2: trivial (S,0) detector attains UDC ({ok}/{len(system)})",
    )

    # Negative: the trivial detector is useless at t >= n/2 -- its (S, 0)
    # reports never satisfy the usefulness inequality, so initiators
    # starve (DC1 fails for the correct initiator).
    t_big = (n + 1) // 2
    run = run_spec(
        RunSpec(
            processes=procs,
            protocol=uniform_protocol(GeneralizedFDUDCProcess, t=t_big),
            workload=single_action("p1", tick=1),
            detector=TrivialSubsetOracle(t_big),
        )
    )
    action = next(iter(actions_in(run)))
    result.require(
        not dc1(run, action),
        f"t={t_big} >= n/2: trivial detector starves (DC1 fails)",
    )
    return result


# ---------------------------------------------------------------------------
# E08: Theorem 4.3 -- simulating t-useful generalized detectors
# ---------------------------------------------------------------------------


def run_e08(n: int = 4, t: int = 2, seeds: Sequence[int] = (0, 1)) -> ExperimentResult:
    """Thm 4.3: UDC systems simulate t-useful generalized detectors."""
    result = ExperimentResult(
        "E08",
        "UDC systems simulate t-useful generalized detectors (Thm 4.3)",
        "Transform f' (P3') over a UDC-attaining ensemble with at most t "
        "failures yields derived generalized detectors satisfying "
        "generalized strong accuracy and t-useful completeness.",
        passed=True,
    )
    procs = make_process_ids(n)
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(GeneralizedFDUDCProcess, t=t),
            t=t,
            workload=lambda plan: post_crash_workload(
                procs, plan, actions_per_survivor=3
            ),
            detector=GeneralizedOracle(t),
            seeds=seeds,
        ),
        cache=None,
    ).system()
    result.row("ensemble size", len(system))
    result.require(all(udc_holds(r) for r in system), "the ensemble attains UDC")
    rfp = simulate_generalized_detectors(system)
    acc = sum(1 for r in rfp if generalized_strong_accuracy(r, derived=True))
    comp = sum(
        1
        for r in rfp
        if generalized_impermanent_strong_completeness(r, t, derived=True)
    )
    result.require(acc == len(rfp), f"R^f' generalized strong accuracy ({acc}/{len(rfp)})")
    result.require(comp == len(rfp), f"R^f' t-useful completeness ({comp}/{len(rfp)})")
    result.details.update(runs=len(system), acc=acc, comp=comp)
    return result


# ---------------------------------------------------------------------------
# E10: Section 5 -- the ATD99 weakest detector
# ---------------------------------------------------------------------------


def run_e10(n: int = 5, seeds: Sequence[int] = (0, 1)) -> ExperimentResult:
    """Section 5: UDC with the ATD99 weakest detector."""
    result = ExperimentResult(
        "E10",
        "UDC with the ATD99 weakest detector (Section 5)",
        "A detector with strong completeness and rotating accuracy (at all "
        "times SOME correct process is unsuspected, not always the same "
        "one) is strictly weaker than weak accuracy yet attains UDC.",
        passed=True,
    )
    procs = make_process_ids(n)
    oracle = AtdRotatingOracle(rotation_period=12)
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(AtdUDCProcess),
            t=n - 2,
            workload=lambda plan: single_action("p1", tick=1)
            + post_crash_workload(procs, plan, actions_per_survivor=1),
            detector=oracle,
            seeds=seeds,
        ),
        cache=None,
    ).system()
    result.row("runs", len(system))
    ok = sum(1 for r in system if udc_holds(r))
    result.require(ok == len(system), f"UDC in all runs ({ok}/{len(system)})")
    atd_ok = all(atd_accuracy(r) for r in system)
    complete = all(strong_completeness(r) for r in system)
    weak_fails = sum(1 for r in system if not weak_accuracy(r))
    result.require(atd_ok, "ATD accuracy in all runs")
    result.require(complete, "strong completeness in all runs")
    result.row("runs violating weak accuracy", f"{weak_fails}/{len(system)}")
    result.require(weak_fails > 0, "detector is strictly weaker than weak accuracy")
    return result


# ---------------------------------------------------------------------------
# E11: Proposition 3.5 -- the epistemic precondition
# ---------------------------------------------------------------------------


def run_e11(n: int = 4, seeds: Sequence[int] = (0,)) -> ExperimentResult:
    """Prop 3.5: the epistemic precondition, model-checked."""
    result = ExperimentResult(
        "E11",
        "The epistemic precondition of performing (Prop 3.5)",
        "In a UDC ensemble: if p knows alpha was initiated and that every "
        "process will learn of it or crash, then p knows some correct "
        "process knows of it (when anyone is correct at all).",
        passed=True,
    )
    procs = make_process_ids(n)
    system = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(StrongFDUDCProcess),
            t=n - 1,
            workload=lambda plan: post_crash_workload(procs, plan, actions_per_survivor=1),
            detector=PerfectOracle(),
            seeds=seeds,
        ),
        cache=None,
    ).system()
    checker = ModelChecker(system)
    actions = sorted({a for r in system for a in actions_in(r)})
    result.row("runs / actions", f"{len(system)} / {len(actions)}")
    checked = 0
    for action in actions[:3]:
        for p in procs:
            formula = prop_3_5(procs, p, action)
            if not result.require(
                checker.valid(formula), f"Prop 3.5 valid for observer {p}, {action!r}"
            ):
                return result
            checked += 1
    # The DC formulas agree with the fast-path checkers.
    for action in actions[:2]:
        temporal = (
            checker.valid(dc1_formula(action))
            and checker.valid(dc2_formula(procs, action))
            and checker.valid(dc3_formula(procs, action))
        )
        fast = all(udc_holds(r, action) for r in system)
        result.require(
            temporal == fast and temporal,
            f"temporal DC formulas agree with checkers for {action!r}",
        )
    result.details["instances"] = checked
    return result


# ---------------------------------------------------------------------------
# E12: the A4 discussion -- full information vs. the paper's counterexample
# ---------------------------------------------------------------------------


def _a4_counterexample_system() -> tuple[System, dict]:
    """The non-FIP system of Section 3's A4 discussion, built by hand.

    Run r: q sends msg to p'; p' relays the disjunction to p as the
    message "crash(q) or send_q(p', msg)" (true because of the send).
    Run r': p' knows q crashed (perfect detector report) and sends p the
    same disjunction (true because of the crash); q never sends.
    At (r, m), p knows the disjunction but neither disjunct -- and no
    point of the system satisfies A4's requirements for
    phi = send_q(p', msg).
    """
    from repro.model.events import (
        CrashEvent,
        ReceiveEvent,
        SendEvent,
        SuspectEvent,
    )
    from repro.model.run import Run

    procs = ("p", "pp", "q")
    msg = Message("m", "payload")
    disj = Message("crash(q) or send_q(pp, m)")
    r = Run(
        procs,
        {
            "q": [(1, SendEvent("q", "pp", msg))],
            "pp": [
                (2, ReceiveEvent("pp", "q", msg)),
                (3, SendEvent("pp", "p", disj)),
            ],
            "p": [(4, ReceiveEvent("p", "pp", disj))],
        },
        duration=6,
    )
    r_prime = Run(
        procs,
        {
            "q": [(1, CrashEvent("q"))],
            "pp": [
                (2, SuspectEvent("pp", StandardSuspicion(frozenset({"q"})))),
                (3, SendEvent("pp", "p", disj)),
            ],
            "p": [(4, ReceiveEvent("p", "pp", disj))],
        },
        duration=6,
    )
    return System([r, r_prime]), {"r": r, "r_prime": r_prime, "msg": msg}


def run_e12(n: int = 4) -> ExperimentResult:
    """Section 3's A4 discussion: the non-FIP counterexample."""
    from repro.knowledge import Crashed, Knows, Or, Sent
    from repro.knowledge.analysis import a4_instance_holds
    from repro.model.run import Point

    result = ExperimentResult(
        "E12",
        "A4 fails without full information (Section 3 discussion)",
        "The paper's hand-built counterexample: p knows a disjunction "
        "without knowing either disjunct, and no point of the system "
        "witnesses A4; in FIP-style ensembles the same A4 instances hold.",
        passed=True,
    )
    system, parts = _a4_counterexample_system()
    checker = ModelChecker(system)
    phi = Sent("q", "pp", parts["msg"])
    disjunction = Or(Crashed("q"), phi)
    point = Point(parts["r"], 4)
    result.require(
        checker.holds(Knows("p", disjunction), point),
        "p knows crash(q) | send_q(pp, msg)",
    )
    result.require(
        not checker.holds(Knows("p", Crashed("q")), point),
        "p does not know crash(q)",
    )
    result.require(
        not checker.holds(Knows("p", phi), point),
        "p does not know send_q(pp, msg)",
    )
    result.require(
        not a4_instance_holds(checker, phi, point, frozenset({"p"})),
        "A4 instance FAILS in the counterexample system",
    )

    # Contrast: in an executor-generated ensemble, A4 instances for
    # init-formulas typically hold -- the protocols carry the relevant
    # information explicitly, not as bare disjunctions.
    from repro.knowledge.formulas import Inited

    procs = make_process_ids(n)
    ensemble = run_ensemble(
        EnsembleSpec.a5t(
            procs,
            uniform_protocol(StrongFDUDCProcess),
            t=1,
            workload=single_action("p1", tick=4),
            detector=PerfectOracle(),
            seeds=(0,),
        ),
        cache=None,
    ).system()
    echecker = ModelChecker(ensemble)
    action = ("p1", "a0")
    init = Inited("p1", action)
    held = 0
    total = 0
    for run in ensemble:
        point = Point(run, 2)  # before anyone can know about the init
        group = frozenset(
            q for q in procs if not echecker.holds(Knows(q, init), point)
        )
        if not group:
            continue
        total += 1
        if a4_instance_holds(echecker, init, point, group):
            held += 1
    result.row("A4 instances in protocol ensemble", f"{held}/{total}")
    result.require(total > 0 and held == total, "A4 instances hold in the ensemble")
    return result


# ---------------------------------------------------------------------------
# A13: ablation -- accuracy is load-bearing for uniformity
# ---------------------------------------------------------------------------


def run_a13(
    n: int = 4,
    error_rates: Sequence[float] = (0.0, 0.4, 0.9),
    seeds: Sequence[int] = tuple(range(30)),
) -> ExperimentResult:
    """Ablation: uniformity-violation rate vs detector error rate."""
    result = ExperimentResult(
        "A13",
        "Detector accuracy sweep (ablation)",
        "Injecting false suspicions into Prop 3.1's protocol lets an "
        "initiator perform before any correct process holds the action; "
        "uniformity (DC2) violations appear as the error rate grows and "
        "vanish at 0.",
        passed=True,
    )
    procs = make_process_ids(n)
    # Moderately lossy channel; the crash lands shortly after the init,
    # while the initiator's first alpha-copies are still at the mercy of
    # the channel.  With an accurate detector the initiator cannot
    # perform before gathering acks or real crashes, so its early death
    # leaves nothing performed and DC2 holds vacuously.  With false
    # suspicions it performs immediately -- and its crash can erase the
    # action.
    lossy = FAIR.with_channel(drop_prob=0.8, max_consecutive_drops=8)
    base = RunSpec(
        processes=procs,
        protocol=uniform_protocol(StrongFDUDCProcess, resend_rounds=60),
        crash_plan=CrashPlan.of({"p1": 12}),
        workload=single_action("p1", tick=1),
        config=lossy,
    )
    rates = []
    for eps in error_rates:
        detector = NoisyStrongOracle(error_rate=eps, start_tick=1, interval=1)
        report = run_ensemble(
            [base.with_(detector=detector, seed=seed) for seed in seeds]
        )
        violations = 0
        for run in report.runs:
            action = next(iter(actions_in(run)), None)
            if action is not None and not dc2(run, action):
                violations += 1
        rate = violations / len(seeds)
        rates.append(rate)
        result.row(f"eps={eps}", f"DC2 violation rate {rate:.2f}")
    result.require(rates[0] == 0.0, "no uniformity violations with an accurate detector")
    result.require(rates[-1] > 0.0, "uniformity violations appear under inaccuracy")
    result.require(
        all(a <= b + 1e-9 for a, b in zip(rates, rates[1:])),
        "violation rate is monotone in the error rate",
    )
    result.details["rates"] = dict(zip(error_rates, rates))
    return result


# ---------------------------------------------------------------------------
# A14: ablation -- R5 fairness is load-bearing
# ---------------------------------------------------------------------------


def run_a14(n: int = 4) -> ExperimentResult:
    """Ablation: R5 fairness is load-bearing."""
    from repro.model.context import ChannelSemantics

    result = ExperimentResult(
        "A14",
        "Channel fairness sweep (ablation)",
        "A blackhole that swallows every message to one process violates "
        "R5 and breaks even non-uniform coordination; restoring the "
        "fairness budget restores nUDC.",
        passed=True,
    )
    procs = make_process_ids(n)
    unfair = ExecutionConfig(
        channel=ChannelConfig(
            semantics=ChannelSemantics.UNFAIR,
            blackhole=lambda s, r, m: r == "p2",
        ),
        validate=False,
    )
    run = Executor(
        procs,
        uniform_protocol(NUDCProcess),
        workload=single_action("p1", tick=1),
        config=unfair,
        seed=0,
    ).run()
    verdict = nudc_holds(run)
    result.require(not verdict, "nUDC violated under the blackhole")
    result.require(
        bool(r5_violations(run)), "the R5 checker flags the unfair run"
    )
    fair_run = Executor(
        procs,
        uniform_protocol(NUDCProcess),
        workload=single_action("p1", tick=1),
        config=FAIR,
        seed=0,
    ).run()
    result.require(bool(nudc_holds(fair_run)), "nUDC restored under fairness")
    result.require(
        not r5_violations(fair_run), "no R5 violations under fairness"
    )
    return result


# ---------------------------------------------------------------------------
# A15: ablation -- the n/2 crossover of the first Table 1 column
# ---------------------------------------------------------------------------


def run_a15(n: int = 5, seeds: Sequence[int] = (0, 1, 2)) -> ExperimentResult:
    """Ablation: the t < n/2 crossover of the detector-free protocol."""
    result = ExperimentResult(
        "A15",
        "Quorum sweep: the t < n/2 crossover (ablation)",
        "Gopal-Toueg's detector-free protocol (trivial subset reports) "
        "attains UDC exactly while t < n/2; the crossover sits at "
        "ceil(n/2).",
        passed=True,
    )
    procs = make_process_ids(n)
    crossover = None
    for t in range(0, n):
        plan = (
            staggered_plan(procs, list(procs)[-t:], first_tick=6)
            if t
            else CrashPlan.none()
        )
        base = RunSpec(
            processes=procs,
            protocol=uniform_protocol(GeneralizedFDUDCProcess, t=t),
            crash_plan=plan,
            workload=single_action("p1", tick=1),
            detector=TrivialSubsetOracle(t),
        )
        report = run_ensemble([base.with_(seed=seed) for seed in seeds])
        ok_all = all(bool(udc_holds(run)) for run in report.runs)
        result.row(f"t={t}", "UDC" if ok_all else "fails")
        if not ok_all and crossover is None:
            crossover = t
    expected = (n + 1) // 2 if n % 2 else n // 2  # first t with 2t >= n
    result.row("observed crossover", str(crossover))
    result.require(
        crossover == expected, f"crossover at t={expected} (first t >= n/2)"
    )
    result.details["crossover"] = crossover
    return result



# ---------------------------------------------------------------------------
# E13: knowledge gain and full information (footnote 5 + the A4/FIP story)
# ---------------------------------------------------------------------------


def run_e13(n: int = 4, seeds: Sequence[int] = (0, 1)) -> ExperimentResult:
    """Footnote 5 + A4: knowledge gain and full-information transfer."""
    from repro.knowledge.chains import has_message_chain, knowledge_gain_violations
    from repro.knowledge.formulas import Inited, Knows
    from repro.model.events import InitEvent
    from repro.model.run import Point
    from repro.sim.fip import with_full_information

    result = ExperimentResult(
        "E13",
        "Knowledge gain and full-information transfer (footnote 5, A4)",
        "In detector-free systems, knowledge of a remote initiation "
        "REQUIRES a message chain from its initiator (knowledge gain); "
        "under a full-information protocol a chain also SUFFICES, so "
        "knowledge of initiations is exactly chain reachability.",
        passed=True,
    )
    procs = make_process_ids(n)
    action = ("p1", "a0")

    def mixed_ensemble(factory):
        # The default run cache: E01 builds the plain protocol's runs.
        with_action = run_ensemble(
            EnsembleSpec.a5t(
                procs, factory, t=1,
                workload=single_action("p1", tick=1), seeds=seeds,
            ),
        ).system()
        without_action = run_ensemble(
            EnsembleSpec.a5t(procs, factory, t=1, seeds=seeds), cache=None
        ).system()
        return with_action.union(without_action)

    # 1. Knowledge gain: no process knows the init without a chain.
    plain = mixed_ensemble(uniform_protocol(NUDCProcess))
    checker = ModelChecker(plain)

    def first_true(run):
        for t, e in run.timeline("p1"):
            if isinstance(e, InitEvent) and e.action == action:
                return t
        return None

    violations = knowledge_gain_violations(
        plain, checker, Inited("p1", action), "p1", first_true
    )
    result.row("runs (plain ensemble)", len(plain))
    result.require(
        not violations, f"knowledge-gain violations: {len(violations)}"
    )

    # 2. Full-information transfer: chains coincide with knowledge.
    fip = mixed_ensemble(with_full_information(uniform_protocol(NUDCProcess)))
    fip_checker = ModelChecker(fip)
    formula = Inited("p1", action)
    agree = 0
    total = 0
    for run in fip:
        init_t = first_true(run)
        if init_t is None:
            continue
        for q in procs:
            if q == "p1":
                continue
            total += 1
            chain = has_message_chain(run, "p1", init_t, q, run.duration)
            knows = fip_checker.holds(
                Knows(q, formula), Point(run, run.duration)
            )
            if chain == knows:
                agree += 1
    result.row("FIP chain/knowledge agreement", f"{agree}/{total}")
    result.require(total > 0 and agree == total, "chains == knowledge under FIP")
    result.details.update(violations=len(violations), agree=agree, total=total)
    return result



# ---------------------------------------------------------------------------
# A16: ablation -- transient partitions
# ---------------------------------------------------------------------------


def run_a16(n: int = 4, seeds: Sequence[int] = (0, 1, 2)) -> ExperimentResult:
    """Ablation: UDC under transient network partitions."""
    from repro.harness.stats import completion_latency
    from repro.sim.network import Partition

    result = ExperimentResult(
        "A16",
        "Transient partitions (ablation)",
        "A finite network partition is just a burst of unfairness: UDC "
        "survives it (retransmission outlasts the partition, R5 in the "
        "limit), at a measurable latency cost that grows with the "
        "partition's length.",
        passed=True,
    )
    procs = make_process_ids(n)
    action = ("p1", "a0")
    group = frozenset(procs[: n // 2])

    def latency(partition_len, seed):
        partitions = (
            (Partition(4, 4 + partition_len, group),) if partition_len else ()
        )
        config = ExecutionConfig(
            channel=ChannelConfig(drop_prob=0.2, partitions=partitions),
            validate=False,  # the finite-R5 heuristic misreads in-partition drops
        )
        run = run_spec(
            RunSpec(
                processes=procs,
                protocol=uniform_protocol(StrongFDUDCProcess, resend_rounds=70),
                crash_plan=CrashPlan.of({procs[-1]: 8}),
                workload=single_action("p1", tick=1),
                detector=PerfectOracle(),
                config=config,
                seed=seed,
            )
        )
        verdict = udc_holds(run)
        return verdict, completion_latency(run, action)

    lengths = (0, 20, 45)
    means = []
    for length in lengths:
        latencies = []
        all_ok = True
        for seed in seeds:
            verdict, lat = latency(length, seed)
            if not verdict or lat is None:
                all_ok = False
                break
            latencies.append(lat)
        result.require(all_ok, f"partition length {length}: UDC holds")
        if not all_ok:
            return result
        mean = sum(latencies) / len(latencies)
        means.append(mean)
        result.row(f"partition length {length}", f"completion latency {mean:.1f}")
    result.require(
        means[0] < means[-1], "longer partitions cost more latency"
    )
    result.details["latencies"] = dict(zip(lengths, means))
    return result


# ---------------------------------------------------------------------------
# A17: ablation -- ensemble size vs knowledge-derived detection
# ---------------------------------------------------------------------------


def run_a17(n: int = 4) -> ExperimentResult:
    """Ablation: ensemble size vs knowledge-derived detection."""
    from repro.harness.stats import detection_latency
    from repro.core.simulation_theorem import transform_run_f

    result = ExperimentResult(
        "A17",
        "Ensemble size vs knowledge-derived detection (ablation)",
        "Theorem 3.6's derived detector is knowledge, which is "
        "ensemble-relative; growing the ensemble can only remove "
        "knowledge, never add it.  Measured: with an oracle that is "
        "accurate ensemble-wide, the knowledge rides on the reports, so "
        "derived completeness AND detection latency are stable across "
        "ensemble sizes (latency never decreases).  What breaks the "
        "report->knowledge link is accuracy failing somewhere in the "
        "ensemble -- E06's phantom-twin ablation shows that collapse.",
        passed=True,
    )
    procs = make_process_ids(n)

    def ensemble(num_seeds):
        # The default run cache: E06 builds seeds 0-1 of this grid.
        return run_ensemble(
            EnsembleSpec.a5t(
                procs,
                uniform_protocol(StrongFDUDCProcess),
                t=n - 1,
                workload=lambda plan: post_crash_workload(
                    procs, plan, actions_per_survivor=2
                ),
                detector=PerfectOracle(),
                seeds=tuple(range(num_seeds)),
            ),
        ).system()

    sizes = (1, 2, 3)
    prev_latency = None
    base_runs = None
    for num_seeds in sizes:
        system = ensemble(num_seeds)
        if base_runs is None:
            base_runs = [r for r in system.runs if len(r.faulty()) == 1][:6]
        latencies = []
        complete = True
        for run in base_runs:
            f_run = transform_run_f(run, system)
            if not strong_completeness(f_run, derived=True):
                complete = False
            lat = detection_latency(f_run, derived=True)
            latencies.extend(lat.values())
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        result.row(
            f"ensemble of {len(system)} runs",
            f"derived detection latency {mean:.1f} ticks",
        )
        result.require(complete, f"{len(system)} runs: derived completeness holds")
        if prev_latency is not None:
            result.require(
                mean >= prev_latency - 1e-9,
                f"latency non-decreasing at {len(system)} runs",
            )
        prev_latency = mean
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "E01": run_e01,
    "E02": run_e02,
    "E03": run_e03,
    "E04": run_e04,
    "E05": run_e05,
    "E06": run_e06,
    "E07": run_e07,
    "E08": run_e08,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "A13": run_a13,
    "A14": run_a14,
    "A15": run_a15,
    "A16": run_a16,
    "A17": run_a17,
}
# E09 (Table 1) lives in repro.harness.table1.


def run_experiment(exp_id: str) -> ExperimentResult:
    """Run one experiment by id (case-insensitive).

    Delegates to :mod:`repro.harness.registry`, so E09 (Table 1) is also
    reachable here even though it lives in :mod:`repro.harness.table1`.
    """
    from repro.harness import registry

    return registry.run(exp_id)
