import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treecast.a5.group import A5, CLASS_SIZES, classify


def test_tables_verify():
    A5.verify()  # associativity over all 60^3 triples, inverses, identity
    assert A5.order == 60
    assert A5.identity == 0
    assert A5.elements[0] == (0, 1, 2, 3, 4)


def test_class_sizes():
    sizes = tuple(int((A5.class_code == c).sum()) for c in range(4))
    assert sizes == CLASS_SIZES == (1, 15, 20, 24)


def test_identity_class():
    assert classify(A5.identity) == 0
    assert A5.elements_of_class(0) == [0]


def test_classify_invariant_under_inverse():
    for g in range(60):
        assert classify(int(A5.inv[g])) == classify(g)


def test_classify_invariant_under_conjugation():
    for g in range(60):
        cg = classify(g)
        for q in range(60):
            assert classify(int(A5.mul[A5.mul[q, g], A5.inv[q]])) == cg


def test_product_folds_left():
    word = (7, 23, 51)
    out = A5.identity
    for g in word:
        out = int(A5.mul[out, g])
    assert A5.product(word) == out
    assert A5.product(()) == A5.identity


def test_product_of_every_pair_is_the_table_entry():
    for a in range(60):
        for b in range(60):
            assert A5.product((a, b)) == int(A5.mul[a, b])


def test_product_of_a_long_word_matches_the_numpy_fold():
    word = (np.arange(1000, dtype=np.int64) * 37 + 11) % 60
    out = np.uint8(A5.identity)
    for g in word:
        out = A5.mul[out, g]
    for form in (word.astype(np.uint8), tuple(int(g) for g in word), list(word)):
        got = A5.product(form)
        assert type(got) is int and got == int(out)


@given(
    st.sampled_from([(), (3,), (2, 4)]),
    st.sampled_from([0, 1, 2, 7, 64]),
    st.data(),
)
def test_products_equal_the_scalar_product_row_by_row(lead, r, data):
    words = data.draw(arrays(np.uint8, lead + (r,), elements=st.integers(0, 59)))
    got = A5.products(words)
    assert got.shape == lead and got.dtype == np.uint8
    for idx in np.ndindex(*lead):
        assert int(got[idx]) == A5.product(words[idx])


def test_five_cycles():
    fives = A5.five_cycles()
    assert len(fives) == 24
    mul = A5.mul
    g = fives[0]
    # order 5: g^5 = identity, g^j != identity for 0 < j < 5
    acc = g
    orders = []
    for _ in range(4):
        acc = int(mul[acc, g])
        orders.append(acc)
    assert acc == A5.identity
    assert all(x != A5.identity for x in orders[:-1])
