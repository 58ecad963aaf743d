import itertools

import pytest

from treeca.errors import AddressOutOfShape, InvalidLevel
from treeca.tree import TreeShape, make_shape, neighbor_tables, parent


def test_shape_sizes():
    assert make_shape(1).total_vertices == 4
    assert make_shape(2).total_vertices == 10
    assert make_shape(3).total_vertices == 22


def test_invalid_level():
    with pytest.raises(InvalidLevel):
        make_shape(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_level_counts(n):
    shape = make_shape(n)
    assert shape.level_sizes[0] == 1
    for l in range(1, n + 1):
        assert shape.level_sizes[l] == 3 * 2 ** (l - 1)
    assert sum(shape.level_sizes) == 1 + 3 * (2**n - 1)
    assert shape.level_offsets[0] == 0
    for l in range(1, n + 1):
        assert shape.level_offsets[l] == 1 + 3 * (2 ** (l - 1) - 1)


def test_linear_index_examples():
    shape = make_shape(2)
    assert shape.linear_index("") == 0
    assert shape.linear_index("3") == 3
    # enumerate level-2 addresses lexicographically and match position
    level2 = ["".join(t) for t in itertools.product("123", "12")]
    assert level2 == sorted(level2)
    assert shape.linear_index("12") == 4 + level2.index("12")
    assert shape.linear_index("12") == 5


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_linear_index_roundtrip_bijection(n):
    shape = make_shape(n)
    seen = set()
    for i in range(shape.total_vertices):
        addr = shape.address_of(i)
        assert shape.linear_index(addr) == i
        seen.add(addr)
    assert len(seen) == shape.total_vertices


def test_lexicographic_order_within_levels():
    shape = make_shape(3)
    for l in range(1, 4):
        start = shape.level_offsets[l]
        addrs = [shape.address_of(start + k) for k in range(shape.level_sizes[l])]
        assert addrs == sorted(addrs)


def test_parent():
    assert parent("") is None
    assert parent("311") == "31"
    assert parent("2") == ""


def test_children():
    shape = make_shape(2)
    assert shape.children("") == ["1", "2", "3"]
    assert shape.children("1") == ["11", "12"]
    assert shape.children("11") == []  # null boundary


def test_parent_child_consistency():
    shape = make_shape(4)
    for i in range(1, shape.total_vertices):
        addr = shape.address_of(i)
        assert addr in shape.children(parent(addr))


def test_address_out_of_shape():
    shape = make_shape(2)
    with pytest.raises(AddressOutOfShape):
        shape.linear_index("111")
    with pytest.raises(AddressOutOfShape):
        shape.children("111")
    with pytest.raises(AddressOutOfShape):
        shape.linear_index("4")


@pytest.mark.parametrize("n", range(1, 11))
def test_neighbor_tables_match_address_route(n):
    shape = make_shape(n)
    size = shape.total_vertices
    par, c1, c2 = neighbor_tables(n)
    for v in range(size):
        pi = shape.parent_index(v)
        kids = shape.child_indices(v) + [size, size]
        assert (par[v], c1[v], c2[v]) == (size if pi is None else pi, kids[0], kids[1])


def test_neighbor_tables_read_only_and_validated():
    assert not any(a.flags.writeable for a in neighbor_tables(3))
    with pytest.raises(InvalidLevel):
        neighbor_tables(0)
