"""Semi-decision of term equality in the two-execution algebra.

Equality modulo left-right commutation is undecidable in general, so the
verdict is three-valued: Equal when normalize-then-encode images are equal as
plain KAT terms (sound in every model); NotEqual when a finite relational
model refutes equality (the refuting model's seed and size are attached);
NotProvenEqual otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kat.decide import ZeroHypothesis, kat_equiv
from ..kat.terms import Alphabet, CapExceeded, names, term_alphabet
from .rewrite import encode_to_tagged_kat, lrc_normalize
from .terms import BiKatTerm, BPrim


@dataclass(frozen=True)
class BiVerdict:
    kind: str  # "equal" | "not_equal" | "not_proven_equal"
    refuting_seed: int | None = None
    refuting_size: int | None = None
    reason: str | None = None

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"


def biterm_alphabet(t: BiKatTerm) -> tuple[Alphabet, tuple[str, ...]]:
    return term_alphabet(t), tuple(sorted(names(t, BPrim)))


def bikat_equiv(
    b1: BiKatTerm,
    b2: BiKatTerm,
    hyps: tuple[ZeroHypothesis, ...] = (),
    refute_models: int = 25,
    refute_sizes: tuple[int, ...] = (2, 3, 4),
    seed: int = 0,
) -> BiVerdict:
    """Equal / NotEqual / NotProvenEqual for two-execution terms.

    Hypotheses must already be stated over the tagged (encoded) alphabet.
    When hypotheses are present the refutation search is skipped: a random
    model need not satisfy them, so a semantic difference would prove nothing.
    """
    n1 = lrc_normalize(b1)
    n2 = lrc_normalize(b2)
    try:
        v = kat_equiv(encode_to_tagged_kat(n1), encode_to_tagged_kat(n2), list(hyps))
    except CapExceeded as e:
        return BiVerdict("not_proven_equal", reason=f"resource: {e}")
    if v.is_equal:
        return BiVerdict("equal")
    if v.kind == "unknown":
        return BiVerdict("not_proven_equal", reason=f"resource: {v.reason}")
    if hyps:
        return BiVerdict("not_proven_equal",
                         reason="encoded terms differ; hypotheses block model search")

    from ..models.bmodel import interp_bikat, random_bimodel

    alph1, bits1 = biterm_alphabet(b1)
    alph2, bits2 = biterm_alphabet(b2)
    alph = alph1.union(alph2)
    bitnames = tuple(sorted(set(bits1) | set(bits2)))
    for size in refute_sizes:
        for k in range(refute_models):
            bm = random_bimodel(seed + 7919 * k + size, size, alph, bitnames)
            if interp_bikat(bm, b1) != interp_bikat(bm, b2):
                return BiVerdict("not_equal", refuting_seed=seed + 7919 * k + size,
                                 refuting_size=size)
    return BiVerdict("not_proven_equal",
                     reason="not provable by commutation-free equational reasoning; "
                            "no finite refutation found")
