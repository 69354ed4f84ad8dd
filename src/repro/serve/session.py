"""Incremental multi-observation diagnosis sessions.

Model-based diagnosis treats a failing unit as a *stream* of
observations, not one response vector: apply a test, look at the
outcome, decide whether applying more tests is still buying resolution.
:class:`DiagnosisSession` is that flow over a fault dictionary — it
starts from the full fault catalogue and narrows the candidate set one
``(test, signature)`` observation at a time, using each dictionary
organisation's own per-test semantics:

* **full** — candidates must reproduce the observed signature exactly;
* **pass/fail** — candidates must agree on detect/not-detect;
* **same/different** — candidates must fall on the observed side of the
  test's baseline (the paper's ``b_i,j`` bit).

Those semantics are the dictionary's per-test value masks
(:meth:`~repro.dictionaries.base.FaultDictionary.value_masks`); the
candidate set is one int bitmask narrowed and scored against them.

The session also answers the operational questions: ``converged`` turns
true when the last ``stall_after`` observations failed to shrink the
candidate set (resolution has stopped improving — stop testing), and
:meth:`suggest_next_test` picks the next test to apply — either the
greedy best-splitter or, with ``strategy="entropy"``, the test
minimizing the expected posterior candidate-set entropy.

Two fleet-facing extensions (both off by default, and byte-identical to
the classic session when off):

* ``flip_budget=k`` keeps a candidate alive until it has disagreed with
  the observations on more than ``k`` tests — noise tolerance for
  testers that occasionally flip a pass/fail (see
  :mod:`repro.diagnosis.noisy` for the batch form);
* :meth:`ranked_candidates` orders the survivors by (disagreements,
  fault index) so noisy sessions still yield an actionable short list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, List, Optional, Tuple

from ..dictionaries.base import FaultDictionary
from ..obs import get_default_registry
from ..sim.responses import Signature
from . import metrics as M

#: Valid ``suggest_next_test`` strategies, in documentation order.
STRATEGIES = ("greedy", "entropy")


@dataclass(frozen=True)
class SessionUpdate:
    """What one observation did to the candidate set."""

    test_index: int
    signature: Signature
    #: Candidate count before / after folding this observation in.
    before: int
    after: int
    #: Consecutive non-improving observations ending here (0 if improved).
    stalled: int

    @property
    def improved(self) -> bool:
        return self.after < self.before


class DiagnosisSession:
    """Narrow a candidate fault set observation by observation.

    ``stall_after`` non-improving observations in a row flip
    :attr:`converged` (a unique candidate or an exhausted test set also
    does); the caller reads it to stop applying tests.  The session never
    touches a simulator — it is a pure serve-side object, so it works
    against artifact-restored dictionaries with no circuit files.

    ``flip_budget`` is the per-candidate noise tolerance: a candidate is
    dropped only once its stored row has disagreed with the observations
    on more than ``flip_budget`` tests.  The default of ``0`` is the
    classic strict filter — one disagreement eliminates.
    """

    def __init__(
        self,
        dictionary: FaultDictionary,
        *,
        stall_after: int = 3,
        flip_budget: int = 0,
    ) -> None:
        if stall_after < 1:
            raise ValueError(f"stall_after must be >= 1, got {stall_after}")
        if flip_budget < 0:
            raise ValueError(f"flip_budget must be >= 0, got {flip_budget}")
        self.dictionary = dictionary
        self.table = dictionary.table
        self.stall_after = stall_after
        self.flip_budget = flip_budget
        self._masks = dictionary.value_masks()
        #: Bit ``i`` set while fault ``i`` is a candidate.
        self._alive = (1 << self.table.n_faults) - 1
        self.history: List[SessionUpdate] = []
        self._observed: Dict[int, Signature] = {}
        #: Per-candidate count of observations its stored row disagreed with.
        self._mismatches: Dict[int, int] = {}
        self._stalled = 0
        self._converged_counted = False
        registry = get_default_registry()
        registry.counter(M.SESSIONS).inc()

    @property
    def candidates(self) -> List[int]:
        """The surviving fault indices, ascending."""
        return _members(self._alive)

    @candidates.setter
    def candidates(self, indices: Iterable[int]) -> None:
        self._alive = _mask_of(indices)

    # ------------------------------------------------------------------
    def observe(self, test_index: int, signature: Signature) -> SessionUpdate:
        """Fold one tester observation in; returns the narrowing result.

        Re-observing a test replaces nothing — each call filters the
        *current* candidate set, so contradictory re-observations simply
        empty it (a clear signal the unit is not modelled).
        """
        if not 0 <= test_index < self.table.n_tests:
            raise ValueError(
                f"test index {test_index} out of range for "
                f"{self.table.n_tests} tests"
            )
        signature = tuple(signature)
        for output in signature:
            if not 0 <= output < self.table.n_outputs:
                raise ValueError(
                    f"output index {output} out of range for "
                    f"{self.table.n_outputs} outputs"
                )
        alive = self._alive
        before = alive.bit_count()
        match = self.dictionary.match_mask(test_index, signature)
        if self.flip_budget:
            dropped = []
            mismatches = self._mismatches
            for i in _members(alive & ~match):
                misses = mismatches.get(i, 0) + 1
                mismatches[i] = misses
                if misses > self.flip_budget:
                    dropped.append(i)
            alive ^= _mask_of(dropped)
        else:
            alive &= match
        self._alive = alive
        after = alive.bit_count()
        self._observed[test_index] = signature
        self._stalled = 0 if after < before else self._stalled + 1
        update = SessionUpdate(
            test_index=test_index,
            signature=signature,
            before=before,
            after=after,
            stalled=self._stalled,
        )
        self.history.append(update)
        registry = get_default_registry()
        registry.counter(M.SESSION_OBSERVATIONS).inc()
        if self.converged and not self._converged_counted:
            self._converged_counted = True
            registry.counter(M.SESSIONS_CONVERGED).inc()
        return update

    # ------------------------------------------------------------------
    @property
    def resolved(self) -> bool:
        """Exactly one candidate remains."""
        return self._alive.bit_count() == 1

    @property
    def exhausted(self) -> bool:
        """Every test has been observed at least once."""
        return len(self._observed) >= self.table.n_tests

    @property
    def stalled(self) -> int:
        """Consecutive observations that did not shrink the candidate set."""
        return self._stalled

    @property
    def converged(self) -> bool:
        """Resolution has stopped improving: a unique (or empty) candidate
        set, ``stall_after`` non-improving observations in a row, or no
        tests left to apply."""
        return (
            self._alive.bit_count() <= 1
            or self._stalled >= self.stall_after
            or self.exhausted
        )

    def candidate_faults(self) -> List[object]:
        """The remaining candidates as fault objects, row order."""
        faults = self.table.faults
        return [faults[i] for i in self.candidates]

    def ranked_candidates(self) -> List[Tuple[int, int]]:
        """Surviving candidates as ``(fault_index, disagreements)``, best
        first.

        Ordered by (disagreements, fault index).  With ``flip_budget=0``
        every survivor has zero disagreements, so this is just the
        candidate list annotated with zeros.
        """
        return sorted(
            ((i, self._mismatches.get(i, 0)) for i in self.candidates),
            key=lambda item: (item[1], item[0]),
        )

    # ------------------------------------------------------------------
    def suggest_next_test(self, strategy: str = "greedy") -> Optional[int]:
        """The next test worth applying, or ``None`` when none helps.

        Already-observed tests are never suggested — re-applying one
        cannot change the candidate set.  Both strategies consider only
        tests whose dictionary column actually splits the current
        candidates, and both break ties deterministically, ending on the
        lowest test index, so equal sessions always suggest the same
        test.  ``None`` means no unobserved test can improve resolution;
        the session is converged by construction at that point.

        ``strategy="greedy"`` (default) maximises the number of candidate
        pairs the test separates, ``(N(N-1) - Σ_v n_v(n_v-1)) / 2`` for
        ``n_v`` candidates storing value ``v`` — the classic
        adaptive-testing step, kept as the golden-path behavior.

        ``strategy="entropy"`` minimises the expected posterior
        candidate-set entropy ``Σ_v (n_v/N)·log2(n_v)`` over the stored
        column values ``v`` (uniform prior over the ``N`` candidates),
        adding the terms in first-member order (values ordered by their
        lowest candidate fault index), which fixes how the float sum
        rounds.  The greedy split count is the first tie-break, then the
        test index.  A three-way near-even split beats a lopsided two-way
        split here, which is what shortens noisy fleet sessions (see
        ``docs/diagnosis.md``).
        """
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}: expected one of {STRATEGIES}"
            )
        alive = self._alive
        total = alive.bit_count()
        if total <= 1:
            return None
        pairs = total * (total - 1)
        observed = self._observed
        if strategy == "greedy":
            best_test: Optional[int] = None
            best_score = 0
            for j, masks in enumerate(self._masks):
                if j in observed:
                    continue
                same = 0
                for mask in masks:
                    n_v = (alive & mask).bit_count()
                    same += n_v * (n_v - 1)
                split = (pairs - same) // 2
                if split > best_score:
                    best_test, best_score = j, split
            return best_test
        # entropy: lower expected posterior entropy wins; ties fall back
        # to the greedy split count (more pairs separated), then index.
        best_test = None
        best_key: Optional[Tuple[float, int, int]] = None
        for j, masks in enumerate(self._masks):
            if j in observed:
                continue
            same = 0
            terms = []  # (lowest candidate bit, n_v) of values with n_v > 1
            for mask in masks:
                hit = alive & mask
                n_v = hit.bit_count()
                if n_v > 1:
                    same += n_v * (n_v - 1)
                    terms.append((hit & -hit, n_v))
            if same == pairs:
                continue  # one value holds every candidate: no split
            terms.sort()
            expected = sum(n_v * math.log2(n_v) for _, n_v in terms) / total
            key = (expected, -((pairs - same) // 2), j)
            if best_key is None or key < best_key:
                best_test, best_key = j, key
        return best_test

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """A plain-data summary of where the session stands."""
        return {
            "observations": len(self.history),
            "candidates": self._alive.bit_count(),
            "narrowing": [update.after for update in self.history],
            "stalled": self._stalled,
            "resolved": self.resolved,
            "converged": self.converged,
            "exhausted": self.exhausted,
        }


def _members(mask: int) -> List[int]:
    """The set bits of ``mask``, ascending: one pass over its binary digits."""
    digits = bin(mask)[:1:-1]  # least significant first, no "0b"
    return list(compress(range(len(digits)), map("1".__eq__, digits)))


def _mask_of(indices: Iterable[int]) -> int:
    """The bitmask with bit ``i`` set for every ``i`` in ``indices``."""
    indices = list(indices)
    if not indices:
        return 0
    top = max(indices)
    digits = bytearray(b"0") * (top + 1)  # most significant first
    for i in indices:
        digits[top - i] = 49  # ord("1")
    return int(digits, 2)
