"""Embedding distribution, left-right commutation, and the tagged encoding.

`distribute_embeddings` pushes embeddings through the KAT operators so every
embedded factor is primitive.  `lrc_normalize` then reorders sequence chains
so left-side factors precede right-side factors wherever the two sides
commute; primitive bitests and mixed factors are fixed barriers.  Which side
a factor reads is `bi.terms.term_side`, where sidedness is defined once.
The tagged encoding maps the result to a plain KAT term over a renamed
alphabet, which is sound for equational reasoning but does not itself
validate commutation — normalize first.  Each of these is a homomorphism,
written as a `bool_map` or `kleene_map` of `kat.terms`.
"""

from __future__ import annotations

from ..kat.terms import (KAT, TESTS, KatTerm, KleeneOps, KTest, TestTerm,
                         bool_map, kact, kleene_map, ktest, tprim)
from .terms import (BIKAT, BITESTS, BEmbLTest, BEmbRTest, BiKatTerm,
                    BiTestTerm, BPrim, BTest, bembl, bembr, bisimplify,
                    bplus, bseq, bstar, btest, emb_test, term_side)

L_TAG = "@L"
R_TAG = "@R"
B_TAG = "@B"
_TAGS = {"L": L_TAG, "R": R_TAG}


def distribute_bitest(t: BiTestTerm) -> BiTestTerm:
    return bool_map(t, lambda a: a if isinstance(a, BPrim) else emb_test(a.side, a.test),
                    BITESTS)


def _distribute_leaf(u: BiKatTerm) -> BiKatTerm:
    if isinstance(u, BTest):
        return btest(distribute_bitest(u.test))
    # an embedded test becomes a bitest, an embedded action stays embedded
    return kleene_map(u.arg, lambda k: (btest(emb_test(u.side, k.test))
                                        if isinstance(k, KTest) else type(u)(k)),
                      BIKAT)


def distribute_embeddings(t: BiKatTerm) -> BiKatTerm:
    """Push every embedding of a composite inward, leaving primitive factors.

    <a;b] becomes <a];<b], <a+b] becomes <a]+<b], <a*] becomes <a]*, and
    embedded tests become bitests pushed through !, +, ;.
    """
    return kleene_map(t, _distribute_leaf, BIKAT)


def _normalize_chain(*chain: BiKatTerm) -> BiKatTerm:
    out: list[BiKatTerm] = []
    run: list[BiKatTerm] = []

    def flush():  # right factors after the others, each in its order
        out.extend(sorted(run, key=lambda f: term_side(f) == "R"))
        run.clear()

    for f in chain:
        if term_side(f) == "B":
            flush()
            out.append(f)
        else:
            run.append(f)
    flush()
    return bseq(*out)


_CHAINS = KleeneOps(bplus, _normalize_chain, bstar)


def lrc_normalize(t: BiKatTerm) -> BiKatTerm:
    """Confluent normal form under [b>;<a] -> <a];[b>, bitests as barriers.

    Distributes embeddings first; within every maximal sequence run free of
    barriers, left factors are moved before right factors, preserving the
    relative order on each side.  Terminating (the count of right-before-left
    inversions strictly decreases) and idempotent.
    """
    t = bisimplify(distribute_embeddings(bisimplify(t)))
    return bisimplify(kleene_map(t, lambda u: u, _CHAINS))


# --- tagged encoding ---------------------------------------------------------

def _tag_test(t: TestTerm, tag: str) -> TestTerm:
    return bool_map(t, lambda p: tprim(p.name + tag), TESTS)


def _tag_term(k: KatTerm, tag: str) -> KatTerm:
    return kleene_map(k, lambda u: (ktest(_tag_test(u.test, tag)) if isinstance(u, KTest)
                                    else kact(u.name + tag)), KAT)


def _encode_atom(a: BiTestTerm) -> TestTerm:
    if isinstance(a, BPrim):
        return tprim(a.name + B_TAG)
    return _tag_test(a.test, _TAGS[a.side])


def encode_to_tagged_kat(t: BiKatTerm) -> KatTerm:
    """Inject into plain KAT over a tagged alphabet (a -> a@L / a@R, bitest
    P -> test P@B).  Faithful for KAT-equational reasoning; commutation of the
    two sides is *not* valid in the image, so normalize before encoding."""
    return kleene_map(
        distribute_embeddings(t),
        lambda u: (ktest(bool_map(u.test, _encode_atom, TESTS)) if isinstance(u, BTest)
                   else _tag_term(u.arg, _TAGS[u.side])), KAT)


def _untag(name: str) -> tuple[str, str]:
    for tag in (L_TAG, R_TAG, B_TAG):
        if name.endswith(tag):
            return name[: -len(tag)], tag
    raise ValueError(f"untagged symbol {name!r} in encoded term")


def _decode_atom(p: TestTerm) -> BiTestTerm:
    base, tag = _untag(p.name)
    if tag == B_TAG:
        return BPrim(base)
    return (BEmbLTest if tag == L_TAG else BEmbRTest)(tprim(base))


def _decode_leaf(k: KatTerm) -> BiKatTerm:
    if isinstance(k, KTest):
        return btest(bool_map(k.test, _decode_atom, BITESTS))
    base, tag = _untag(k.name)
    return bembl(kact(base)) if tag == L_TAG else bembr(kact(base))


def decode_tagged_kat(k: KatTerm) -> BiKatTerm:
    """Inverse of the tagged encoding, on images of distributed terms."""
    return kleene_map(k, _decode_leaf, BIKAT)
