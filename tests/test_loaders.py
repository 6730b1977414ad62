"""Every loader of outside input parses it or raises ValueError: label JSON,
BCAST1 dumps, word instances, experiment configs and formula text."""

import json
import struct

from hypothesis import example, given
from hypothesis import strategies as st

from treecast.a5.reduction import WordInstance
from treecast.experiments import EXPERIMENT_KINDS, ExperimentConfig
from treecast.formulas import parse_formula
from treecast.labels import LabelArray

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)


def _near(valid, *others):
    """A value from `valid`, from `others`, or any JSON value."""
    return st.one_of(valid, *others, _json_values)


_label_docs = st.fixed_dictionaries(
    {},
    optional={
        "k": _near(st.integers(0, 3)),
        "d": _near(st.integers(-1, 3)),
        "m": _near(st.integers(0, 4), st.just(70_000)),
        "levels": _near(st.lists(st.lists(st.integers(-1, 4), max_size=9), max_size=4)),
    },
)


@example(doc={"k": 2, "d": 1, "m": 2, "levels": [[1], [0, 1]]})
@example(doc={"k": 2, "d": 1, "m": 2, "levels": None})
@example(doc={"k": 2, "d": 1, "m": 2, "levels": 5})
@given(doc=_label_docs)
def test_label_json_parses_or_raises_value_error(doc):
    try:
        arr = LabelArray.from_json(json.dumps(doc))
    except ValueError:
        return
    assert LabelArray.from_json(arr.to_json()).to_json() == arr.to_json()


@given(text=st.text(max_size=40))
def test_label_json_text_parses_or_raises_value_error(text):
    try:
        LabelArray.from_json(text)
    except ValueError:
        pass


@st.composite
def _dumps(draw):
    head = struct.pack(
        "<III",
        draw(st.integers(0, 3) | st.integers(0, 2**32 - 1)),
        draw(st.integers(0, 3) | st.integers(0, 2**32 - 1)),
        draw(st.integers(0, 300) | st.integers(0, 2**32 - 1)),
    )
    blob = b"BCAST1" + head + draw(st.binary(max_size=40))
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@example(blob=LabelArray.from_json('{"k": 2, "d": 1, "m": 3, "levels": [[2], [0, 1]]}').to_bytes())
@given(blob=_dumps() | st.binary(max_size=30))
def test_label_dump_parses_or_raises_value_error(blob):
    try:
        arr = LabelArray.from_bytes(blob)
    except ValueError:
        return
    assert arr.to_bytes() == blob


_word_docs = st.fixed_dictionaries(
    {},
    optional={
        "word": _near(st.lists(st.integers(-1, 60), max_size=6)),
        "promise": _near(st.sampled_from(["identity", "target"])),
        "target": _near(st.integers(-1, 60)),
    },
)


@example(doc={"word": [13], "promise": "target", "target": 13})
@given(doc=_word_docs)
def test_word_instance_parses_or_raises_value_error(doc):
    try:
        inst = WordInstance.from_json(json.dumps(doc))
    except ValueError:
        return
    assert WordInstance.from_json(inst.to_json()) == inst


_grid_values = st.lists(st.integers(-1, 5) | st.sampled_from(["2", " 3", "x", "1/2", "-1/2", "0.9", "2/0"]), max_size=3)
_config_docs = st.fixed_dictionaries(
    {},
    optional={
        "experiment": _near(st.sampled_from(EXPERIMENT_KINDS)),
        "seed": _near(st.integers()),
        "trials": _near(st.integers(0, 1000)),
        "k": _near(_grid_values),
        "theta": _near(_grid_values),
        "d": _near(_grid_values),
        "s": _near(_grid_values),
        "out": _near(st.just("rows.csv")),
        "format": _near(st.sampled_from(["csv", "json", "bin"])),
        "jobs": _near(st.integers(-1, 4)),
        "model": _near(st.sampled_from(["class16", "pair3600"])),
        "schema_version": _near(st.integers(0, 2)),
        "bogus": _json_values,
    },
)


@example(doc={"experiment": "ks-scan", "k": [2, "3"], "theta": ["1/2"], "d": [4]})
@example(doc={})
@given(doc=_config_docs)
def test_experiment_config_parses_or_raises_value_error(doc):
    try:
        cfg = ExperimentConfig.from_json(json.dumps(doc))
    except ValueError:
        return
    assert cfg.experiment in EXPERIMENT_KINDS


_formula_text = st.lists(
    st.sampled_from(["(", ")", "and", "or", "not", "x1", "x2", "x0", "0", "1", "2", "x", "y", "x-1"]),
    max_size=12,
).map(" ".join)


@example(text="(and x1 (not x2))")
@given(text=_formula_text | st.text(max_size=20))
def test_formula_text_parses_or_raises_value_error(text):
    try:
        f = parse_formula(text)
    except ValueError:
        return
    assert parse_formula(f.to_text()) == f
