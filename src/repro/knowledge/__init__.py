"""Knowledge and time: the formal language of Section 2.3 (after FHMV95).

* :mod:`repro.knowledge.formulas`  -- the formula AST: primitive
  propositions, Boolean connectives, the temporal operators ``Box``
  (always) / ``Diamond`` (eventually), and the epistemic operator K_p.
* :mod:`repro.knowledge.semantics` -- the model checker: truth of a
  formula at a point (R, r, m) of a finite system, with validity
  checking and memoization.
* :mod:`repro.knowledge.analysis`  -- locality, stability, and
  insensitivity-to-failure (Definition 3.3) analyses.
* :mod:`repro.knowledge.paper_formulas` -- the specific formulas the
  paper reasons with: Proposition 3.5's epistemic precondition and the
  DC1-DC3 properties as temporal formulas.
* :mod:`repro.knowledge.reference`  -- the naive point-scanning kernel,
  retained as the differential-testing and benchmarking baseline for
  the columnar fast path (:mod:`repro.columnar.kernel`).
"""

from repro.knowledge.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Crashed,
    Did,
    Diamond,
    Box,
    Formula,
    Iff,
    Implies,
    Inited,
    Knows,
    Not,
    Or,
    Received,
    Sent,
)
from repro.knowledge.semantics import ModelChecker
from repro.knowledge.analysis import (
    insensitive_to_failure,
    is_local,
    is_stable,
)
from repro.knowledge.chains import chain_closure, has_message_chain
from repro.knowledge.group import GroupChecker, e_iterated, everyone_knows
from repro.knowledge.wire import (
    formula_from_jsonable,
    formula_to_jsonable,
    formula_wire_key,
)

__all__ = [
    "And",
    "Atom",
    "Box",
    "Crashed",
    "Diamond",
    "Did",
    "FALSE",
    "Formula",
    "GroupChecker",
    "Iff",
    "Implies",
    "Inited",
    "Knows",
    "ModelChecker",
    "Not",
    "Or",
    "Received",
    "Sent",
    "TRUE",
    "chain_closure",
    "e_iterated",
    "everyone_knows",
    "formula_from_jsonable",
    "formula_to_jsonable",
    "formula_wire_key",
    "has_message_chain",
    "insensitive_to_failure",
    "is_local",
    "is_stable",
]
