import ast
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import treecast
from treecast.channels import (
    Channel,
    CutTables,
    Threshold,
    as_fraction,
    cumulative_cuts,
    cut63,
    ks_parameter,
    uniform_draw,
)


def test_as_fraction_reads_decimal_floats():
    assert as_fraction(0.8) == Fraction(4, 5)
    assert as_fraction("0.8") == Fraction(4, 5)
    assert as_fraction("4/5") == Fraction(4, 5)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(1) == 1


def test_binary_channel_entries():
    ch = Channel.binary(Fraction(3, 5))
    assert ch.matrix[0][0] == Fraction(4, 5)  # keep probability (1+theta)/2
    assert ch.matrix[1][0] == Fraction(1, 5)
    assert ch.is_binary_symmetric
    assert ch.theta == Fraction(3, 5)


@given(st.fractions(min_value=-1, max_value=1))
def test_binary_channel_columns_sum(theta):
    ch = Channel.binary(theta)
    for j in range(2):
        assert sum(ch.column(j)) == 1


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel.from_columns([["1/2", "1/4"], ["1/2", "1/2"]])  # column sums
    with pytest.raises(ValueError):
        Channel.from_columns([["3/2", "-1/2"], ["1/2", "1/2"]])  # negative
    with pytest.raises(ValueError):
        Channel.binary(Fraction(3, 2))


def test_ks_parameter_binary_exact():
    # The binary case resolves exactly: k * theta^2 = 10 * 9/25 = 18/5.
    assert ks_parameter(Channel.binary(Fraction(3, 5)), 10) == float(Fraction(18, 5))


def test_ks_parameter_identity_channel():
    ident = Channel.from_columns([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    for k in (1, 5, 100):
        assert ks_parameter(ident, k) == pytest.approx(float(k))


def test_ks_parameter_numeric_path():
    # A generic 3-label chain: lambda2 computed numerically.
    ch = Channel.from_columns(
        [["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"], ["1/4", "1/4", "1/2"]]
    )
    assert ks_parameter(ch, 4) == pytest.approx(4 * 0.25**2, abs=1e-9)


def test_cut63_bounds():
    assert cut63(Fraction(0)) == 0
    assert cut63(Fraction(1)) == 1 << 63
    with pytest.raises(ValueError):
        cut63(Fraction(3, 2))


def test_uniform_cuts_unbiased():
    cuts = cumulative_cuts([1] * 60, 60)
    assert len(cuts) == 59
    # the uniform draw steps to label i + 1 at cut i; each label mass within
    # 2^-60 of 1/60
    prev = 0
    for i, c in enumerate(cuts):
        assert uniform_draw(60, 2 * int(c) - 1) == i and uniform_draw(60, 2 * int(c)) == i + 1
        mass = (int(c) - prev) / 2**63
        assert abs(mass - 1 / 60) < 2**-60
        prev = int(c)


@pytest.mark.parametrize("ms", [range(1, 257), [3600], [1 << 16]], ids=["1-256", "3600", "2^16"])
def test_uniform_draw_equals_the_plain_search_at_every_cut(ms):
    # Every cut - 1, cut and cut + 1 as a 63-bit word, each with both low
    # bits, and the raw words 0 and 2^64 - 1.
    for m in ms:
        cuts = cumulative_cuts([1] * m, m)
        near = np.concatenate([cuts - np.uint64(1), cuts, cuts + np.uint64(1)]) << np.uint64(1)
        words = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64), near, near | np.uint64(1)])
        want = np.searchsorted(cuts, words >> np.uint64(1), side="right")
        got = uniform_draw(m, words)
        assert got.dtype == np.uint64 and got.shape == words.shape
        assert np.array_equal(got, want), m
        assert uniform_draw(m, 0) == 0 and uniform_draw(m, 2**64 - 1) == m - 1


@given(st.integers(1, 2**32 - 1), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_uniform_draw_array_and_int_forms_equal_the_formula(m, words):
    want = [(m * (w >> 1) + m - 1) >> 63 for w in words]
    assert [uniform_draw(m, w) for w in words] == want
    assert uniform_draw(m, np.array(words, dtype=np.uint64)).tolist() == want
    assert all(0 <= x < m for x in want)


@pytest.mark.parametrize("m", [0, -1, 1 << 32, 1 << 40])
def test_uniform_draw_rejects_m_outside_1_to_2_32(m):
    with pytest.raises(ValueError, match="uniform draws"):
        uniform_draw(m, 5)
    with pytest.raises(ValueError, match="uniform draws"):
        uniform_draw(m, np.arange(3, dtype=np.uint64))


@given(
    st.lists(st.integers(0, 10**30), min_size=1, max_size=40).filter(lambda n: sum(n) > 0),
    st.sampled_from([1, 3]),
)
def test_cumulative_cuts_are_cut63_of_the_cumulative_law(numerators, scale):
    den = scale * sum(numerators)
    expected = [cut63(Fraction(sum(numerators[: i + 1]), den)) for i in range(len(numerators) - 1)]
    cuts = cumulative_cuts(numerators, den)
    assert cuts.dtype == np.uint64 and cuts.tolist() == expected


def _fraction_loop_cuts(ch: Channel) -> list[list[int]]:
    """Each column's cut table as a running Fraction sum, entry by entry."""
    rows = []
    for j in range(ch.m):
        acc, row = Fraction(0), []
        for i in range(ch.m - 1):
            acc += ch.matrix[i][j]
            row.append(cut63(acc))
        rows.append(row)
    return rows


@pytest.mark.parametrize("theta", ["-1", "-1/2", "0", "1/3", "1", "quotient"])
def test_sampling_cuts_equal_the_fraction_loop(theta):
    if theta == "quotient":
        from treecast.a5.quotient import quotient_channel

        ch = quotient_channel()
    else:
        ch = Channel.binary(Fraction(theta))
    assert ch.sampling_cuts().shape == (ch.m, ch.m - 1)
    assert ch.sampling_cuts().tolist() == _fraction_loop_cuts(ch)


@given(
    st.lists(
        st.lists(st.integers(0, 50), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
        min_size=3,
        max_size=3,
    )
)
def test_sampling_cuts_equal_the_fraction_loop_on_three_labels(weights):
    ch = Channel.from_columns([[Fraction(w, sum(col)) for w in col] for col in weights])
    assert ch.sampling_cuts().tolist() == _fraction_loop_cuts(ch)


def test_sampling_cuts_deterministic_column_exact():
    ch = Channel.binary(1)  # deterministic copy
    cuts = ch.sampling_cuts()
    assert int(cuts[0][0]) == 1 << 63  # never exceeded by a 63-bit word
    assert int(cuts[1][0]) == 0


def test_sampling_cuts_cached_read_only():
    from treecast.a5.quotient import quotient_channel

    ch = quotient_channel()
    cuts = ch.sampling_cuts()
    assert ch.sampling_cuts() is cuts
    fresh = [
        [cut63(sum(ch.matrix[i][j] for i in range(t + 1))) for t in range(ch.m - 1)]
        for j in range(ch.m)
    ]
    assert cuts.tolist() == fresh
    with pytest.raises(ValueError):
        cuts[0, 0] = 0


@pytest.mark.parametrize(
    "channel",
    [
        Channel.binary(Fraction(3, 5)),
        Channel.binary(1),
        Channel.from_columns([["1/2", "1/2", "0"], ["0", "3/4", "1/4"], ["1/7", "0", "6/7"]]),
    ],
)
def test_integer_columns_cached_and_exact(channel):
    cols, den = channel.integer_columns()
    assert channel.integer_columns() is channel.integer_columns()
    for a in range(channel.m):
        listed = dict(cols[a])
        assert all(type(w) is int and w > 0 for w in listed.values())
        for b in range(channel.m):
            assert Fraction(listed.get(b, 0), den) == channel.matrix[b][a]
    assert den == lcm(*(p.denominator for row in channel.matrix for p in row))


@given(
    st.lists(st.integers(0, 50), min_size=3, max_size=3).filter(lambda w: sum(w) > 0)
)
def test_sampling_cuts_within_fixed_point_budget(weights):
    total = sum(weights)
    col = [Fraction(w, total) for w in weights]
    ch = Channel.from_columns([col, col, col])
    cuts = ch.sampling_cuts()
    for j in range(3):
        prev = 0
        acc = Fraction(0)
        for i in range(2):
            acc += ch.matrix[i][j]
            mass = Fraction(int(cuts[j][i]) - prev, 1 << 63)
            assert abs(mass - ch.matrix[i][j]) < Fraction(1, 1 << 60)
            prev = int(cuts[j][i])
        assert abs(Fraction((1 << 63) - prev, 1 << 63) - ch.matrix[2][j]) < Fraction(1, 1 << 60)


def test_sampling_tables_cached_over_the_sampling_cuts():
    ch = Channel.binary(Fraction(1, 3))
    tables = ch.sampling_tables()
    assert ch.sampling_tables() is tables
    assert np.array_equal(tables.cuts, ch.sampling_cuts())


_TOP = 1 << 63


@st.composite
def _adversarial_cut_tables(draw):
    """Sorted cut rows aimed at the guide, mixing a drawn subset of: cuts on
    bucket edges and one off them, many cuts in one bucket, repeated cuts
    (labels of probability zero), cuts in the last bucket, cuts of 0, 2^63
    padding at a row's end, and cuts anywhere.  The values come from a
    drawn seed, so a failure shrinks over a few small integers."""
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 24))
    kinds = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = 63 - (width.bit_length() + 4)  # the table's buckets, as CutTables sizes them
    buckets = 1 << (63 - shift)
    crowded = int(rng.integers(buckets)) << shift

    def value(kind: int) -> int:
        if kind == 0:
            return min(max((int(rng.integers(buckets + 1)) << shift) + int(rng.integers(-1, 2)), 0), _TOP)
        if kind == 1:
            return crowded + int(rng.integers(1 << shift))
        if kind == 2:
            return crowded
        if kind == 3:
            return _TOP - int(rng.integers((1 << shift) + 1))
        return (0, _TOP, int(rng.integers(_TOP, endpoint=True, dtype=np.uint64)))[kind - 4]

    table = [sorted(value(kinds[rng.integers(len(kinds))]) for _ in range(width)) for _ in range(rows)]
    return np.array(table, dtype=np.uint64)


def _probe_words(cuts: np.ndarray, shift: int) -> np.ndarray:
    """Every cut and its neighbours, both edges of every bucket that holds a
    cut, and the two extreme words."""
    near = cuts.astype(object).ravel()
    edges = [(int(c) >> shift) << shift for c in near if c < _TOP]
    probes = {0, _TOP - 1}
    for x in [*near, *edges, *(e + (1 << shift) for e in edges)]:
        probes.update(w for w in (x - 1, x, x + 1) if 0 <= w < _TOP)
    return np.array(sorted(probes), dtype=np.uint64)


@given(_adversarial_cut_tables())
def test_cut_tables_bounded_miss_search_equals_the_plain_search(raw_words, cuts):
    tables = CutTables(cuts)
    shift = int(tables.shift) - 1  # the buckets of 63-bit words
    words = _probe_words(cuts, shift)
    rows = np.repeat(np.arange(len(cuts)), words.size)
    probes = np.tile(words, len(cuts))
    want = np.concatenate([np.searchsorted(row, words, side="right") for row in cuts])
    assert np.array_equal(tables.draw(rows, raw_words(probes)), want)
    # The round count is the bit length of the most cuts in one bucket.
    buckets = [np.unique(row[row < _TOP] >> np.uint64(shift), return_counts=True)[1] for row in cuts]
    assert tables.rounds == int(max(c.max(initial=0) for c in buckets)).bit_length()
    # One row for every word, a single word, and no words at all.
    last = len(cuts) - 1
    assert np.array_equal(tables.draw(last, raw_words(words)), want[last * words.size :])
    one = raw_words(words[-1:])
    assert tables.draw(np.array([last]), one).tolist() == [int(want[-1])]
    assert tables.draw(0, one[:0]).shape == (0,)
    assert tables.draw(np.zeros((0, 3), dtype=np.intp), np.zeros((0, 3), dtype=np.uint64)).shape == (0, 3)


@given(_adversarial_cut_tables())
def test_cut_tables_put_row_by_row_equal_the_table_built_whole(cuts):
    whole = CutTables(cuts)
    grown = CutTables(np.full(cuts.shape, _TOP, dtype=np.uint64))
    for row, kept in enumerate(cuts):
        grown.put(row, kept[kept < _TOP])
    assert np.array_equal(grown.cuts, whole.cuts)
    assert np.array_equal(grown.guide, whole.guide)
    assert grown.rounds == whole.rounds
    assert not (grown.cuts.flags.writeable or grown.guide.flags.writeable)


def test_cut_tables_guide_budget_fits_the_tables_in_use():
    # The mc-scan code tables (2 rows) and the 16-row quotient channel keep
    # 16 buckets per cut; 600 rows of 599 cuts fall back to 2^18 / 600.
    from treecast.a5.quotient import quotient_channel
    from treecast.generators import _code_tables

    code = _code_tables(2, 4, Fraction(4, 5), Fraction(1, 10))
    quotient = quotient_channel().sampling_tables()
    for tables in (code, quotient):
        assert tables.bits == tables.cuts.shape[1].bit_length() + 4
        assert tables.guide.size <= CutTables.GUIDE_CELLS
    assert code.guide.shape == (2, 1 << 17) and quotient.guide.shape == (16, 1 << 8)
    wide = CutTables(np.sort(np.random.default_rng(1).integers(0, _TOP, (600, 599), dtype=np.uint64)))
    assert wide.guide.shape == (600, 1 << 8)


def test_every_word_draw_outside_channels_goes_through_cut_tables():
    # An inverse-CDF draw of a word is a `CutTables.draw`; no other module
    # calls searchsorted (docstrings may still name it).
    src = Path(treecast.__file__).parent
    for path in src.rglob("*.py"):
        if path.name == "channels.py" and path.parent == src:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                assert name != "searchsorted", f"{path.name}:{node.lineno}"


def _is_one(node) -> bool:
    if isinstance(node, ast.Call) and len(node.args) == 1:  # np.uint64(1)
        node = node.args[0]
    return isinstance(node, ast.Constant) and node.value == 1


def _reads_63_bits(node) -> bool:
    """`x >> 1`, `x >>= 1` or `right_shift(x, 1)`, or any mention of `cut63`."""
    if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.RShift):
        return _is_one(node.right if isinstance(node, ast.BinOp) else node.value)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name == "right_shift" and len(node.args) > 1 and _is_one(node.args[1])
    return "cut63" in {getattr(node, key, None) for key in ("id", "attr", "name")}


def test_only_channels_reads_a_counter_word_as_a_draw():
    # Every other module passes raw 64-bit words to `channels`: none shifts a
    # word to 63 bits or builds a `cut63` threshold of its own.
    src = Path(treecast.__file__).parent
    found = []
    for path in src.rglob("*.py"):
        if path == src / "channels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _reads_63_bits(node):
                found.append(f"{path.relative_to(src).as_posix()}:{node.lineno}")
    assert not found


# The `rng` functions whose values are counter words (or keys made of them),
# and the operators that keep a word a word.
_WORD_FUNCTIONS = {
    "word", "words_vec", "progression_words", "trial_level_words", "level_words",
    "level_blocks", "subkey", "trial_keys",
}
_BIT_OPS = ast.RShift | ast.LShift | ast.BitAnd | ast.BitOr | ast.BitXor


def _call_name(node) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _word_names(scope) -> set[str]:
    """Local names bound to a counter word in `scope`: by assignment or a
    for loop over a word function's value (every name of a tuple target)."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign | ast.For | ast.AnnAssign):
            value = node.iter if isinstance(node, ast.For) else node.value
            if isinstance(value, ast.Call) and _call_name(value) in _WORD_FUNCTIONS:
                targets = [node.target] if not isinstance(node, ast.Assign) else node.targets
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _is_word(node, names: set[str]) -> bool:
    """`node` is a counter word: a word function's value, a local name bound
    to one, or a shift, mask, index or method call (`.astype`) of a word."""
    if isinstance(node, ast.Call):
        if _call_name(node) in _WORD_FUNCTIONS:
            return True
        return isinstance(node.func, ast.Attribute) and _is_word(node.func.value, names)
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Subscript):
        return _is_word(node.value, names)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BIT_OPS):
        return _is_word(node.left, names) or _is_word(node.right, names)
    return False


def _word_remainders(source: str) -> list[int]:
    """Lines of `source` that take `w % m` or `w // m` of a counter word w."""
    tree = ast.parse(source)
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]
    found = set()
    for scope in scopes:
        names = _word_names(scope)
        for node in ast.walk(scope):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod | ast.FloorDiv):
                if _is_word(node.left, names):
                    found.add(node.lineno)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod | ast.FloorDiv):
                if _is_word(node.target, names):
                    found.add(node.lineno)
    return sorted(found)


def test_word_remainder_detector_flags_direct_and_named_words():
    flagged = """
def f(key, idx, h2):
    w = words_vec(key, idx)
    a = (w % np.uint64(16)).astype(np.uint8)
    b = (t + 1 + words_vec(key, h2 | np.uint64(1)) % np.uint64(59)) % np.uint64(60)
    c = (rng.word(key, 3) >> 1) // 7
    for first, block in level_blocks(tkeys, 1, 8, 0, buffers):
        block %= 5
"""
    assert _word_remainders(flagged) == [4, 5, 6, 8]
    clean = """
def f(key, idx, h2, t):
    w = words_vec(key, idx)
    a = uniform_draw(16, w).astype(np.uint8)
    b = (t + 1 + uniform_draw(59, words_vec(key, h2 | np.uint64(1)))) % np.uint64(60)
    c = (width + 63) // 64
"""
    assert _word_remainders(clean) == []


def test_only_channels_takes_a_remainder_of_a_counter_word():
    # A categorical draw of a word is `channels.uniform_draw` (or a cut
    # table); no other module reads a word modulo m or divides it down.
    src = Path(treecast.__file__).parent
    found = []
    for path in src.rglob("*.py"):
        if path == src / "channels.py":
            continue
        lines = _word_remainders(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(src).as_posix()}:{line}" for line in lines]
    assert not found


@given(
    _adversarial_cut_tables(),
    st.fractions(min_value=0, max_value=1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 2**32 - 1),
)
def test_draws_ignore_the_low_bit_of_a_raw_word(cuts, p, seed, m):
    # A raw word and the same word with its low bit flipped draw alike, from
    # a cut table, a threshold and a uniform draw over m labels, at every
    # cut, bucket edge and extreme.
    tables = CutTables(cuts)
    w63 = np.concatenate([
        _probe_words(cuts, int(tables.shift) - 1),
        np.array([0, cut63(p) - 1, cut63(p), _TOP - 1], dtype=object).clip(0, _TOP - 1).astype(np.uint64),
        np.random.default_rng(seed).integers(0, _TOP, 64, dtype=np.uint64),
    ])
    even = w63 << np.uint64(1)
    odd = even | np.uint64(1)
    rows = np.arange(w63.size) % len(cuts)
    want = [np.searchsorted(cuts[r], w, side="right") for r, w in zip(rows, w63)]
    assert tables.draw(rows, even).tolist() == tables.draw(rows, odd).tolist() == want
    threshold = Threshold(p)
    below = w63 < np.uint64(cut63(p))
    for words in (even, odd):
        assert np.array_equal(threshold.below(words), below)
        assert np.array_equal(threshold.above(words), ~below)
    uniform = [(m * w + m - 1) >> 63 for w in w63.tolist()]
    assert uniform_draw(m, even).tolist() == uniform_draw(m, odd).tolist() == uniform


def test_no_word_is_drawn_from_blake2b():
    # blake2b only derives stream keys (`rng.stream_key`); every draw is a
    # counter word.
    src = Path(treecast.__file__).parent
    calls = []
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path == src / "rng.py":
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn.name == "stream_key":
                    allowed = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if "blake2b" in name:
                    calls.append(f"{path.name}:{node.lineno}")
                    assert id(node) in allowed, calls[-1]
    assert len(calls) == 1  # the key derivation itself


def test_splitmix_finalizer_lives_in_rng_only():
    # One hashing implementation: the splitmix64 multipliers appear in
    # rng.py alone, so no second finalizer loop grows elsewhere under src/.
    multipliers = {0xBF58476D1CE4E5B9, 0x94D049BB133111EB}
    src = Path(treecast.__file__).parent
    found = {}
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in multipliers:
                found.setdefault(path.relative_to(src).as_posix(), set()).add(node.value)
    assert found == {"rng.py": multipliers}
