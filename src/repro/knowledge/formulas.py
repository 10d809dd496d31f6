"""The formula AST (Section 2.3).

The language starts from primitive propositions -- ``send_p(q, msg)``,
``recv_q(p, msg)``, ``crash(p)``, ``do_p(alpha)``, ``init_p(alpha)`` --
and closes under Boolean combinations, the linear-time operator ``Box``
(with its dual ``Diamond``), and the epistemic operators K_p.

Each node advertises two static attributes:

* ``locality`` -- a process id when the formula's truth at a point is a
  function of that process's local history alone (all the primitive
  propositions above are local to the process whose history records the
  event, and K_p formulas are local to p).
* ``syntactically_stable`` -- True when the formula is stable (once
  true, stays true) *by construction*: event-occurrence primitives are
  stable because histories only grow, ``Box phi`` is stable, and
  conjunctions/disjunctions of stable formulas are stable.  Knowledge of
  a stable local formula is stable.  (Negation is not: this is a sound
  syntactic under-approximation; :func:`repro.knowledge.analysis.is_stable`
  decides stability semantically on a given system.)
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.model.events import ActionId, Message, ProcessId
from repro.model.run import Point


class Formula:
    """Base class; subclasses are immutable after construction."""

    # __weakref__: the model checker's memo drops a formula's point set
    # together with the formula.
    __slots__ = ("locality", "syntactically_stable", "__weakref__")

    def __init__(
        self,
        locality: Optional[ProcessId] = None,
        syntactically_stable: bool = False,
    ) -> None:
        self.locality = locality
        self.syntactically_stable = syntactically_stable

    # Combinator sugar -------------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        """Sugar for :class:`Implies`."""
        return Implies(self, other)

    def label(self) -> str:
        """A readable rendering of the formula."""
        raise NotImplementedError


def _shared_locality(parts: tuple[Formula, ...]) -> Optional[ProcessId]:
    localities = {f.locality for f in parts}
    if len(localities) == 1:
        return next(iter(localities))
    return None


class Atom(Formula):
    """A primitive proposition given by a point predicate.

    ``fn`` maps a :class:`~repro.model.run.Point` to a bool.  Declare
    ``locality``/``stable`` truthfully: they are reported as static
    facts about the formula, never checked.  The model checker calls
    ``fn`` once per point of the system (and per foreign point asked
    about).
    """

    __slots__ = ("name", "fn")

    def __init__(
        self,
        name: str,
        fn: Callable[[Point], bool],
        *,
        locality: Optional[ProcessId] = None,
        stable: bool = False,
    ) -> None:
        super().__init__(locality, stable)
        self.name = name
        self.fn = fn

    def label(self) -> str:
        return self.name


class _Const(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        super().__init__(locality=None, syntactically_stable=value)
        self.value = value

    def label(self) -> str:
        return "true" if self.value else "false"


TRUE = _Const(True)
FALSE = _Const(False)


# -- primitive propositions over histories -------------------------------------


class Inited(Formula):
    """init_p(alpha) holds at a cut iff the event is in p's history there."""

    __slots__ = ("process", "action")

    def __init__(self, process: ProcessId, action: ActionId) -> None:
        super().__init__(locality=process, syntactically_stable=True)
        self.process = process
        self.action = action

    def label(self) -> str:
        return f"init_{self.process}({self.action!r})"


class Did(Formula):
    """do_p(alpha)."""

    __slots__ = ("process", "action")

    def __init__(self, process: ProcessId, action: ActionId) -> None:
        super().__init__(locality=process, syntactically_stable=True)
        self.process = process
        self.action = action

    def label(self) -> str:
        return f"do_{self.process}({self.action!r})"


class Crashed(Formula):
    """crash(p)."""

    __slots__ = ("process",)

    def __init__(self, process: ProcessId) -> None:
        super().__init__(locality=process, syntactically_stable=True)
        self.process = process

    def label(self) -> str:
        return f"crash({self.process})"


class Sent(Formula):
    """send_p(q, msg); with msg=None, "p has sent something to q"."""

    __slots__ = ("sender", "receiver", "message")

    def __init__(
        self, sender: ProcessId, receiver: ProcessId, message: Message | None = None
    ) -> None:
        super().__init__(locality=sender, syntactically_stable=True)
        self.sender = sender
        self.receiver = receiver
        self.message = message

    def label(self) -> str:
        return f"send_{self.sender}({self.receiver}, {self.message!r})"


class Received(Formula):
    """recv_q(p, msg); with msg=None, "q has received something from p"."""

    __slots__ = ("receiver", "sender", "message")

    def __init__(
        self, receiver: ProcessId, sender: ProcessId, message: Message | None = None
    ) -> None:
        super().__init__(locality=receiver, syntactically_stable=True)
        self.receiver = receiver
        self.sender = sender
        self.message = message

    def label(self) -> str:
        return f"recv_{self.receiver}({self.sender}, {self.message!r})"


# -- connectives ----------------------------------------------------------------


class Not(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula) -> None:
        super().__init__(locality=child.locality, syntactically_stable=False)
        self.child = child

    def label(self) -> str:
        return f"~({self.child.label()})"


class And(Formula):
    __slots__ = ("parts",)

    def __init__(self, *parts: Formula) -> None:
        flattened: list[Formula] = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        self.parts = tuple(flattened)
        super().__init__(
            locality=_shared_locality(self.parts),
            syntactically_stable=all(p.syntactically_stable for p in self.parts),
        )

    def label(self) -> str:
        return " & ".join(f"({p.label()})" for p in self.parts) or "true"


class Or(Formula):
    __slots__ = ("parts",)

    def __init__(self, *parts: Formula) -> None:
        flattened: list[Formula] = []
        for part in parts:
            if isinstance(part, Or):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        self.parts = tuple(flattened)
        super().__init__(
            locality=_shared_locality(self.parts),
            syntactically_stable=all(p.syntactically_stable for p in self.parts),
        )

    def label(self) -> str:
        return " | ".join(f"({p.label()})" for p in self.parts) or "false"


class Implies(Formula):
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula) -> None:
        super().__init__(
            locality=_shared_locality((antecedent, consequent)),
            syntactically_stable=False,
        )
        self.antecedent = antecedent
        self.consequent = consequent

    def label(self) -> str:
        return f"({self.antecedent.label()}) => ({self.consequent.label()})"


def Iff(a: Formula, b: Formula) -> Formula:
    """Bi-implication, expanded to a conjunction of implications."""
    return And(Implies(a, b), Implies(b, a))


# -- temporal operators ------------------------------------------------------------


class Box(Formula):
    """``Box phi``: phi holds from this point on (the paper's square)."""

    __slots__ = ("child",)

    def __init__(self, child: Formula) -> None:
        # Truth depends on the run's future, never on a local history
        # alone; Box phi is stable by definition.
        super().__init__(locality=None, syntactically_stable=True)
        self.child = child

    def label(self) -> str:
        return f"[]({self.child.label()})"


class Diamond(Formula):
    """``Diamond phi`` = not Box not phi: phi holds now or later."""

    __slots__ = ("child",)

    def __init__(self, child: Formula) -> None:
        super().__init__(locality=None, syntactically_stable=False)
        self.child = child

    def label(self) -> str:
        return f"<>({self.child.label()})"


# -- the epistemic operator -----------------------------------------------------------


class Knows(Formula):
    """K_p phi: phi holds at every point p cannot distinguish from here."""

    __slots__ = ("process", "child")

    def __init__(self, process: ProcessId, child: Formula) -> None:
        # K_p phi is local to p (standard: Kp(Kp phi) or Kp(~Kp phi) is
        # valid); knowledge of a stable formula local to its subject is
        # stable because local histories only grow.
        super().__init__(
            locality=process,
            syntactically_stable=child.syntactically_stable
            and child.locality is not None,
        )
        self.process = process
        self.child = child

    def label(self) -> str:
        return f"K_{self.process}({self.child.label()})"
