"""Byte-identity of seeded CLI outputs: the sha256 of each command's stdout.

Every seeded output is a pure function of (flags, seed), whatever the chunk
size or worker count.  Each command runs in-process through `cli.main` with
`--jobs 1`, and its stdout (or, for `detect --out`, the CSV it appends to)
must hash to the digest recorded here.  A change that moves a digest on
purpose re-captures it and names it in CHANGES.md.

The digests were captured with Python 3.11.7 and numpy 2.4.6.  The float
columns of `scan-ks`, `scan-noise` and `detect` come from numpy reductions;
if a digest moves under another numpy version with the code unchanged, that
is a dependence on the numpy version, and the test is not widened into a
tolerance.
"""

import hashlib

import numpy as np
import pytest

from treecast.cli import EXIT_OK, main

GOLDEN = {
    "scan-ks-default": (
        ["scan-ks"],
        "f0abbf8abc659b8b4d3a11219def53ac9efc18905419ef0b21a97f2970c0a00f",
    ),
    "scan-ks-grid": (
        ["scan-ks", "--k", "2,3", "--theta", "1/2,9/10", "--d", "3,4", "--trials", "2000"],
        "3fc8d72cbccd1a398f66cd6920642a8d57a8abecc6f2c93c308571bdf3566113",
    ),
    "scan-noise-default": (
        ["scan-noise"],
        "53166c83fb7a856f7f6815d251ea5dc454075b1a82263f07dc481d9d4b83f135",
    ),
    "scan-noise-mc": (
        ["scan-noise", "--k", "2", "--theta", "4/5", "--d", "8", "--s", "1/10", "--trials", "3000"],
        "3ace57408338d7f511d0c81c023567ad01d74bfc458b85dcd2db868ea4cfff25",
    ),
    "scan-noise-json": (
        ["--format", "json", "scan-noise", "--trials", "500"],
        "58ffb65b61d4ec6f3b2c75d726ad92325358cc955a65ba51c5d90498a2ea9f39",
    ),
    "a5-default": (
        ["a5"],
        "d4167f302e56ed9baa04d20c553ffad44c921897347e13ece74a31d3a485c8ef",
    ),
    "a5-small-k": (
        ["a5", "--k", "4", "--d", "3", "--trials", "300"],
        "011c93303a78e62a12eea4295cdb056a47525e49a011ba2e258ef3b38d790919",
    ),
    "a5-k6000": (
        ["a5", "--k", "6000", "--d", "2", "--trials", "200"],
        "2784a53ccd9dab2ff43179d22f4800cdf08591f907d705b0f23bfe98d4e8fbed",
    ),
    "a5-pair3600": (
        ["a5", "--model", "pair3600", "--k", "20", "--d", "2", "--trials", "100"],
        "4c22d50df654af8a838b9a0c0aab873df98fc7f55629c3588ed5db94c0198060",
    ),
    "detect-majority": (
        ["detect", "--k", "2", "--d", "10", "--theta", "4/5", "--trials", "3000",
         "--estimator", "majority"],
        "8ac947c537c7f81c50c768bc546d97f32264898c54b904118cd3df6e3a8e4513",
    ),
    "detect-linearized-bp-pilot": (
        ["detect", "--k", "3", "--d", "6", "--theta", "9/10", "--estimator", "linearized-bp"],
        "7eac046a53feec2a0327e4e359ef227cccea2b8c08f06281673789b63192b953",
    ),
    "detect-bp-rounding": (
        ["detect", "--k", "2", "--d", "12", "--theta", "4/5", "--trials", "3000",
         "--estimator", "bp-rounding"],
        "f740da262d0b76b363e9f9d15742a59d62a865738dc32c9fe9293f18660ad069",
    ),
    "gen-direct": (
        ["gen", "--k", "3", "--d", "3", "--theta", "3/5", "--generator", "direct"],
        "a0157f1123fbfd4a4417b6ae5ad361d39490410db44363d7cdecb4fed15f86bc",
    ),
    "gen-path-product": (
        ["gen", "--k", "3", "--d", "3", "--theta", "3/5", "--generator", "path-product"],
        "4a745b13f835c09c150588272f2ea8a7699c30d620abf2d8e49ef9609f7018a3",
    ),
    "gen-restrictions": (
        ["gen", "--k", "3", "--d", "3", "--theta", "3/5", "--generator", "restrictions"],
        "6d4ff0f287900f3fec85a25ac59d9847b74fa2086419a7ed90aa67c9fa2ef5b5",
    ),
    "gen-pair3600": (
        ["gen", "--k", "4", "--d", "2", "--generator", "pair3600"],
        "b740ec4d1f643d95b156b31f21dfb10a61299fd5842832d485b3e8dcf4376848",
    ),
    "gen-class16": (
        ["gen", "--k", "4", "--d", "2", "--generator", "class16"],
        "9c1156acfc04f8053f0ae848d5316d2f300496427eea9c2d13d32296b182d22c",
    ),
    "reduce-word-target": (
        ["reduce-word", "--promise", "target"],
        "a0fb6e7d347f63b9973abd6be2c3db51b84507a9bb72cb5214b3003ba359b0b9",
    ),
    "reduce-word-identity": (
        ["reduce-word", "--promise", "identity"],
        "a8f8194687c1a53f6ef13e10e280f6322eb2e7c3b43dc68503a1bf510078739a",
    ),
    "compile-gadget-check": (
        ["compile-gadget", "--formula", "(or (and x1 (not x2)) x3)", "--check"],
        "4762c2269eda6a534a954a1f2e358d1afe1acb3052b7e74417a1c296c0ac956a",
    ),
    "compile-barrington-check": (
        ["compile-barrington", "--formula", "(or (and x1 (not x2)) x3)", "--check"],
        "0db9412de9a8457d284d424a372ad845fe1c80d231b65be385fc16fddda00393",
    ),
    "verify-quick": (
        ["verify", "--quick"],
        "a14627ec6dd2a4c5e181b71640a20581b143a2356780ef072e91357ece5df947",
    ),
}

# Two `detect --out` runs append two rows to one experiment CSV.
DETECT_APPENDS = (
    ["--seed", "3", "detect", "--k", "2", "--d", "8", "--theta", "4/5", "--trials", "50",
     "--estimator", "bp-rounding"],
    ["--seed", "4", "detect", "--k", "3", "--d", "4", "--theta", "1/2", "--trials", "400",
     "--estimator", "majority"],
)
DETECT_APPENDS_DIGEST = "a9b23c6a4f5bee2a6b4322e24b566d702a5f35692647816c84acc47ef9dad516"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(capsys, argv) -> bytes:
    capsys.readouterr()
    code = main(["--jobs", "1", *argv])
    out = capsys.readouterr().out
    assert code == EXIT_OK, argv
    return out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(capsys, name):
    argv, digest = GOLDEN[name]
    assert _sha256(_stdout(capsys, argv)) == digest


def test_detect_out_csv_digest(capsys, tmp_path):
    path = str(tmp_path / "detect.csv")
    for argv in DETECT_APPENDS:
        assert _stdout(capsys, ["--out", path, *argv]) == b""
    with open(path, "rb") as fh:
        assert _sha256(fh.read()) == DETECT_APPENDS_DIGEST


def test_scan_noise_verdict_lines(capsys):
    """The default scan's monotonicity verdicts, the `#` lines on stderr."""
    capsys.readouterr()
    assert main(["--jobs", "1", "scan-noise"]) == EXIT_OK
    verdicts = [line for line in capsys.readouterr().err.splitlines() if line.startswith("#")]
    assert verdicts == [
        "# monotone-in-s k=2 theta=9/10 d=1: yes",
        "# monotone-in-s k=2 theta=9/10 d=2: yes",
        "# monotone-in-s k=2 theta=9/10 d=3: yes",
        "# monotone-in-d k=2 theta=9/10 s=0: yes",
        "# monotone-in-d k=2 theta=9/10 s=1/10: no",
        "# monotone-in-d k=2 theta=9/10 s=1/2: yes",
        "# monotone-in-d k=2 theta=9/10 s=1/5: no",
        "# monotone-in-d k=2 theta=9/10 s=2/5: no",
        "# monotone-in-d k=2 theta=9/10 s=3/10: no",
    ]


def test_class16_recursive_reconstruct_digest():
    """No command reaches `recursive_reconstruct`'s class16 path, so its
    (root estimate, flagged nodes) pairs on 40 seeded trees are pinned here;
    at k = 3 most nodes are flagged and many tallies tie."""
    from treecast.a5.quotient import generate_class16
    from treecast.a5.reconstruct import recursive_reconstruct
    from treecast.rng import SeedSpec
    from treecast.trees import TreeShape

    out = []
    for i in range(40):
        tree = generate_class16(TreeShape(3, 4), SeedSpec(5, f"golden/{i}"))
        r = recursive_reconstruct(tree.leaves, 3, "class16", seed=SeedSpec(5, f"rec/{i}"))
        out.append((r.root_estimate, r.flagged_nodes))
    assert sum(flagged for _, flagged in out) == 1247
    assert _sha256(repr(out).encode()) == (
        "6e53066dafa9b0b1680ac2b3de871cdcd614164d1b7cf595c254868f81010d32"
    )


def _arrays_digest(arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


PRODUCT_TREE_GOLDEN = {
    (1, 3600, 1): "882a054737f84084edb9e1fc165c7b709b9225665c23023408f5e633be6a82d0",
    (3, 4, 50): "f9ae0c2c192c61b8638635c908cadd3c38422e3831d9d7de8ae78efd19ce1f74",
    (5, 2, 20): "d660358c00f05ad862caae9b67177935f200eb9427fb62624c6caa3166b81fae",
}


@pytest.mark.parametrize("d, k, trees", sorted(PRODUCT_TREE_GOLDEN))
def test_product_tree_levels_digest(d, k, trees):
    """No command reaches the batched product-tree sampler, so its levels on
    a seeded word are pinned here."""
    from treecast.a5.pair_model import _product_tree_levels
    from treecast.rng import SeedSpec, level_words

    sigma = level_words(SeedSpec(11, f"golden/sigma{d}").key(), 0, 2 ** (d + 1)) % np.uint64(60)
    levels = _product_tree_levels(d, sigma, k, SeedSpec(11, f"golden/ptree{d}/{k}"), trees)
    assert _arrays_digest(levels) == PRODUCT_TREE_GOLDEN[d, k, trees]


def _depth5_formula():
    """A complete depth-5 formula over 8 variables with every node kind:
    AND and OR alternate by level, a NOT replaces every fourth gate on
    level 3, and one leaf is a constant."""
    from treecast.formulas import Const, Gate, Not, Var

    def build(level, i):
        if level == 5:
            return Const(1) if i == 13 else Var((5 * i + 3) % 8)
        if level == 3 and i % 4 == 1:
            return Not(build(level + 1, 2 * i))
        op = "and" if level % 2 == 0 else "or"
        return Gate(op=op, left=build(level + 1, 2 * i), right=build(level + 1, 2 * i + 1))

    return build(0, 0)


def test_barrington_program_and_batch_products_digest():
    """The compiled depth-5 program and its products on all 256 assignments."""
    from treecast.a5.barrington import barrington_compile, evaluate_program_batch, program_to_json
    from treecast.a5.group import A5

    formula = _depth5_formula()
    target = A5.five_cycles()[7]
    program = barrington_compile(formula, target)
    assignments = ((np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1).astype(np.uint8)
    products = evaluate_program_batch(program, assignments)
    truth = np.array([formula.evaluate(a) for a in assignments.tolist()], dtype=bool)
    assert np.array_equal(products, np.where(truth, target, A5.identity))
    program_bytes = repr(program_to_json(program)).encode()
    assert (len(program), _sha256(program_bytes), _arrays_digest([products])) == (
        1662,
        "87985b879dc14fa32c83d49b3b532f09a5b32d7f1773a94bff1cfbb559aa5275",
        "2c435de1c4d8bc77c2af53dd192f22396fcafa650d825169d622c946a1cd08c1",
    )


# Guards on the counter-word layer and the uniform draw: the words and draws
# of the A5 hot path, pinned in-process so a faster hashing pass or uniform
# draw cannot move one.
GUARD_KEYS = (0, 1, 1 << 63, (1 << 64) - 1, 0x0123456789ABCDEF)


def test_uniform60_over_counter_words_digest():
    from treecast.a5.pair_model import _uniform60
    from treecast.rng import SeedSpec, words_vec

    words = words_vec(SeedSpec(13, "golden/uniform60").key(), np.arange(1 << 20, dtype=np.uint64))
    assert _arrays_digest([_uniform60(words)]) == (
        "217890c3092339d5cffe6487db4ee13cdd1ce849940f5473b9a2af8195629772"
    )


def test_sample_root_digest():
    from treecast.generators import _sample_root
    from treecast.rng import SeedSpec, subkey

    key = SeedSpec(13, "golden/roots").key()
    roots = [[_sample_root(subkey(key, i), m, None) for i in range(1000)] for m in (2, 16, 3600)]
    assert _sha256(repr(roots).encode()) == (
        "7f0af3210446dc8c6b72ae2bf8adda5f4cbf0f1a0cf2afa6df8e7dde33805355"
    )


def test_gadget_corpus_formulas_digest():
    from treecast.experiments import GadgetCorpusReport, _CounterDraws, run_gadget_corpus
    from treecast.formulas import random_formula
    from treecast.rng import SeedSpec, subkey

    assert run_gadget_corpus(1) == GadgetCorpusReport(100, 13_568, 0)
    key = SeedSpec(1, "gadget-corpus").key()
    texts = [
        random_formula(_CounterDraws(subkey(key, f)), n_vars=8, max_gates=24, max_depth=5).to_text()
        for f in range(100)
    ]
    assert _sha256("\n".join(texts).encode()) == (
        "71132e3edea2832ea2968feca1a7e0586cc6843755c9c92a4aa87ff8fa6576db"
    )


def test_trial_keys_and_progression_words_digest():
    from treecast.rng import progression_words, trial_keys

    arrays = []
    for key in GUARD_KEYS:
        arrays.append(trial_keys(key, 1))
        for count in (1, 2, 8, 9, 3600):
            for step, offset in ((1, 0), (2, 1), (256, 9)):
                arrays.append(progression_words(key, step, offset, count))
    assert _arrays_digest(arrays) == (
        "fd9f54afec5cb0d0a8c9c4ba9542d517b6fc377749aeae99c479e58d15eefeda"
    )


def test_level_blocks_digest():
    from treecast.rng import BLOCK_WORDS, SeedSpec, level_blocks, trial_keys

    tkeys = trial_keys(SeedSpec(13, "golden/blocks").key(), 2049)
    buffers = np.empty((2, BLOCK_WORDS), dtype=np.uint64)
    h = hashlib.sha256()
    for start, block in level_blocks(tkeys, 3, 256, 1, buffers):
        h.update(start.to_bytes(8, "little"))
        h.update(block.tobytes())
    assert h.hexdigest() == (
        "7f8f00dec52df25298bc7fa3790c890da8ebd0306ff332596993faf6ae11ff90"
    )
