"""One store per model: a term's walker, a witness term's pair walker, an
image map, a pair spec and a primitive's footprint bits are each built once
per model and key (`kmodel.compiled`), however often the oracles ask."""

from collections import Counter

import pytest

from bikat.judge import core, witness
from bikat.models import kmodel
from bikat.problem import load_problem

from test_corpus import PROBLEMS
from test_rowshare import run_everything


def count_builds(monkeypatch) -> Counter:
    """The builds of each compiled object, counted by (maker, model, key)."""
    made: Counter = Counter()

    def counting(name, make):
        def build(model, *args):
            made[name, id(model), *args] += 1
            return make(model, *args)
        return build

    for mod, name in ((kmodel, "_compile"), (kmodel, "_footprint_bits"),
                      (witness, "_compile_pairs")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    for cls in (core.PostMap, core.PairSpec):
        class Counted(cls):
            def __init__(self, model, *args, base=cls):
                made[base.__name__, id(model), *args] += 1
                super().__init__(model, *args)
        monkeypatch.setattr(core, cls.__name__, Counted)
    return made


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_each_compiled_object_is_built_once_per_model_and_key(path, monkeypatch):
    made = count_builds(monkeypatch)
    prob = load_problem(path.read_text(), path.stem, width_override=2)
    run_everything(prob, path)
    first = Counter(made)
    kinds = {"_compile", "_footprint_bits", "PostMap", "PairSpec"}
    if prob.script_goal is not None or prob.witness is not None:
        kinds.add("_compile_pairs")
    assert kinds <= {key[0] for key in first}
    run_everything(prob, path)
    assert made == first
    assert set(first.values()) == {1}

    # a second model of the same text keeps its own store
    again = load_problem(path.read_text(), path.stem, width_override=2)
    core.post_map(again.bm.base, prob.judgment().left)
    assert made["PostMap", id(again.bm.base), prob.judgment().left, False] == 1

