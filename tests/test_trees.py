import pytest

from treecast.trees import NodeAddr, TreeShape


def test_shape_counts_exact():
    shape = TreeShape(k=3, d=4)
    assert shape.n == 81
    assert [shape.nodes_at(lvl) for lvl in range(5)] == [1, 3, 9, 27, 81]
    assert shape.total_nodes == 121


def test_shape_validation():
    with pytest.raises(ValueError):
        TreeShape(k=0, d=1)
    with pytest.raises(ValueError):
        TreeShape(k=2, d=-1)
    assert TreeShape(k=1, d=5).n == 1


def test_addr_validation():
    shape = TreeShape(k=2, d=2)
    NodeAddr(2, 3).validate(shape)
    with pytest.raises(ValueError):
        NodeAddr(3, 0).validate(shape)
    with pytest.raises(ValueError):
        NodeAddr(1, 2).validate(shape)
