"""Seeded random generators shared by the property tests and the fuzz CLI."""

from __future__ import annotations

import random

from bikat.bi.terms import (BEmbLTest, BEmbRTest, BiKatTerm, BPrim, BT1, band,
                            bembl, bembr, bnot, bor, bplus, bseq, bstar,
                            btest)
from bikat.kat.terms import (Alphabet, KatTerm, TestTerm, kact, kplus, kseq,
                             kstar, ktest, tand, tnot, tor, tprim, T0, T1)


def random_test(rng: random.Random, tests: tuple[str, ...], depth: int = 2) -> TestTerm:
    if depth == 0 or not tests:
        if not tests or rng.random() < 0.15:
            return rng.choice((T0, T1))
        return tprim(rng.choice(tests))
    pick = rng.random()
    if pick < 0.5:
        return tprim(rng.choice(tests))
    if pick < 0.65:
        return tnot(random_test(rng, tests, depth - 1))
    if pick < 0.85:
        return tand(random_test(rng, tests, depth - 1),
                    random_test(rng, tests, depth - 1))
    return tor(random_test(rng, tests, depth - 1),
               random_test(rng, tests, depth - 1))


def random_kat(rng: random.Random, alphabet: Alphabet, depth: int = 3) -> KatTerm:
    if depth == 0:
        pick = rng.random()
        if pick < 0.55 and alphabet.actions:
            return kact(rng.choice(alphabet.actions))
        return ktest(random_test(rng, alphabet.tests, 1))
    pick = rng.random()
    if pick < 0.3:
        return random_kat(rng, alphabet, 0)
    if pick < 0.55:
        return kseq(random_kat(rng, alphabet, depth - 1),
                    random_kat(rng, alphabet, depth - 1))
    if pick < 0.8:
        return kplus(random_kat(rng, alphabet, depth - 1),
                     random_kat(rng, alphabet, depth - 1))
    return kstar(random_kat(rng, alphabet, depth - 1))


def random_bitest(rng: random.Random, tests: tuple[str, ...],
                  bitests: tuple[str, ...], depth: int = 2):
    if depth == 0:
        pick = rng.random()
        if pick < 0.4 and bitests:
            return BPrim(rng.choice(bitests))
        if pick < 0.7 and tests:
            return BEmbLTest(tprim(rng.choice(tests)))
        if tests:
            return BEmbRTest(tprim(rng.choice(tests)))
        return BPrim(rng.choice(bitests)) if bitests else BT1
    pick = rng.random()
    if pick < 0.4:
        return random_bitest(rng, tests, bitests, 0)
    if pick < 0.6:
        return bnot(random_bitest(rng, tests, bitests, depth - 1))
    if pick < 0.8:
        return band(random_bitest(rng, tests, bitests, depth - 1),
                    random_bitest(rng, tests, bitests, depth - 1))
    return bor(random_bitest(rng, tests, bitests, depth - 1),
               random_bitest(rng, tests, bitests, depth - 1))


def random_bikat(rng: random.Random, alphabet: Alphabet,
                 bitests: tuple[str, ...], depth: int = 3) -> BiKatTerm:
    if depth == 0:
        pick = rng.random()
        if pick < 0.35 and alphabet.actions:
            return bembl(kact(rng.choice(alphabet.actions)))
        if pick < 0.7 and alphabet.actions:
            return bembr(kact(rng.choice(alphabet.actions)))
        return btest(random_bitest(rng, alphabet.tests, bitests, 1))
    pick = rng.random()
    if pick < 0.25:
        return random_bikat(rng, alphabet, bitests, 0)
    if pick < 0.45:
        return bseq(random_bikat(rng, alphabet, bitests, depth - 1),
                    random_bikat(rng, alphabet, bitests, depth - 1))
    if pick < 0.65:
        return bplus(random_bikat(rng, alphabet, bitests, depth - 1),
                     random_bikat(rng, alphabet, bitests, depth - 1))
    if pick < 0.8:
        return bstar(random_bikat(rng, alphabet, bitests, depth - 1))
    if pick < 0.9:
        return bembl(random_kat(rng, alphabet, depth - 1))
    return bembr(random_kat(rng, alphabet, depth - 1))
