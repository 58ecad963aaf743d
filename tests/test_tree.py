import contextlib
import itertools
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from treeca import dynamics
from treeca.analysis import _printable_shape, partition_atom_count
from treeca.dynamics import Configuration, _check_enumeration, enumerate_preimages, garden_report
from treeca.errors import AddressOutOfShape, EnumerationTooLarge, InvalidLevel
from treeca.field import PrimeField, is_prime
from treeca.rulematrix import LinAlgReport, Params, SolutionSet, build_rule_matrix
from treeca.tree import TreeShape, ball_size, digit_budget, neighbor_tables, parent, printable


def test_shape_sizes():
    assert TreeShape(1).total_vertices == 4
    assert TreeShape(2).total_vertices == 10
    assert TreeShape(3).total_vertices == 22


def test_invalid_level():
    with pytest.raises(InvalidLevel):
        TreeShape(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_level_counts(n):
    shape = TreeShape(n)
    assert shape.level_sizes[0] == 1
    for l in range(1, n + 1):
        assert shape.level_sizes[l] == 3 * 2 ** (l - 1)
    assert sum(shape.level_sizes) == 1 + 3 * (2**n - 1)
    assert shape.level_offsets[0] == 0
    for l in range(1, n + 1):
        assert shape.level_offsets[l] == 1 + 3 * (2 ** (l - 1) - 1)


def test_linear_index_examples():
    shape = TreeShape(2)
    assert shape.linear_index("") == 0
    assert shape.linear_index("3") == 3
    # enumerate level-2 addresses lexicographically and match position
    level2 = ["".join(t) for t in itertools.product("123", "12")]
    assert level2 == sorted(level2)
    assert shape.linear_index("12") == 4 + level2.index("12")
    assert shape.linear_index("12") == 5


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_linear_index_roundtrip_bijection(n):
    shape = TreeShape(n)
    seen = set()
    for i in range(shape.total_vertices):
        addr = shape.address_of(i)
        assert shape.linear_index(addr) == i
        seen.add(addr)
    assert len(seen) == shape.total_vertices


def test_lexicographic_order_within_levels():
    shape = TreeShape(3)
    for l in range(1, 4):
        start = shape.level_offsets[l]
        addrs = [shape.address_of(start + k) for k in range(shape.level_sizes[l])]
        assert addrs == sorted(addrs)


def test_parent():
    assert parent("") is None
    assert parent("311") == "31"
    assert parent("2") == ""


def test_children():
    shape = TreeShape(2)
    assert shape.children("") == ["1", "2", "3"]
    assert shape.children("1") == ["11", "12"]
    assert shape.children("11") == []  # null boundary


def test_parent_child_consistency():
    shape = TreeShape(4)
    for i in range(1, shape.total_vertices):
        addr = shape.address_of(i)
        assert addr in shape.children(parent(addr))


def test_address_out_of_shape():
    shape = TreeShape(2)
    with pytest.raises(AddressOutOfShape):
        shape.linear_index("111")
    with pytest.raises(AddressOutOfShape):
        shape.children("111")
    with pytest.raises(AddressOutOfShape):
        shape.linear_index("4")


@pytest.mark.parametrize("n", range(1, 11))
def test_neighbor_tables_match_address_route(n):
    shape = TreeShape(n)
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


# ---------------------------------------------------------------------------
# The digit budget. The four screens that tree.printable replaced, each as it
# read at Python's int-to-str limit `limit` > 0, are kept here as its oracle:
# True when the count was refused (or, for the enumeration message, shown).


def retired_level_refused(n, limit):  # analysis._printable_shape
    return n + 2 > 3.32 * limit and (n > 4 * limit or ball_size(n) >= 10**limit)


def retired_probe_refused(steps, p, limit):  # analysis.partition_atom_count
    return ball_size(min(steps, 64)) * math.log10(p) > limit


def retired_garden_refused(order, p, rank, limit):  # cli.cmd_garden's screen, then json.dumps
    """Run with limit in force: json.dumps refused past it."""
    if (order - 1) * (p.bit_length() - 1) >= 4 * limit:
        return True
    try:
        json.dumps([p**rank, p**order - p**rank])
    except ValueError:
        return True
    return False


def retired_enumeration_shown(size, p, limit):  # dynamics._check_enumeration
    return size * (p.bit_length() - 1) < 4 * limit and p**size < 10**limit


@contextlib.contextmanager
def int_max_str_digits(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def primes_around(x):
    """The largest prime <= x and the smallest > x, each in [2, 2^31) if there is one."""
    below = next((q for q in range(int(x), 1, -1) if is_prime(q)), None)
    above = next(q for q in itertools.count(int(x) + 1) if is_prime(q))
    return [q for q in (below, above) if q is not None and q < 2**31]


def boundary_primes(limit, size):
    """Primes on both sides of 10^(limit/size), where p^size passes limit digits."""
    exponent = limit / size
    return primes_around(10**exponent) if exponent < 9.4 else []


SOME_PRIMES = [2, 3, 5, 17, 65521, 2**31 - 1]
LIMITS = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                            reason="no int-to-str digit limit in this Python")


@LIMITS
@pytest.mark.parametrize("limit", [640, 4300])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_level_is_refused_as_the_retired_screen_refused_it(limit, data):
    deepest = ((10**limit + 1) // 3).bit_length() - 1  # 3*2^n - 2 < 10^limit
    n = data.draw(st.one_of(st.integers(deepest - 4, deepest + 4),
                            st.integers(4 * limit - 4, 4 * limit + 4), st.integers(1, 5 * limit)))
    event(f"refused: {retired_level_refused(n, limit)}")
    with int_max_str_digits(limit):
        assert (printable(2, n, lambda: ball_size(n)) is None) == retired_level_refused(n, limit)
        if retired_level_refused(n, limit):
            with pytest.raises(InvalidLevel, match=rf"^level {n}: .* more than {limit} digits$"):
                _printable_shape(n)
        else:
            assert _printable_shape(n).n == n


@LIMITS
@pytest.mark.parametrize("limit", [640, 4300])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_probe_is_refused_as_the_retired_screen_refused_it(limit, data):
    steps = data.draw(st.integers(1, 20) | st.integers(60, 70), label="steps")
    near = boundary_primes(limit, ball_size(steps)) if steps < 30 else []
    p = data.draw(st.sampled_from(near or SOME_PRIMES) | st.sampled_from(SOME_PRIMES), label="p")
    refused = retired_probe_refused(steps, p, limit)
    event(f"refused: {refused}")
    with int_max_str_digits(limit):
        if refused:
            with pytest.raises(ValueError, match=rf"^claimed count p\^\|V_steps\| exceeds "
                                                 rf"{limit} digits at steps={steps}, p={p}$"):
                partition_atom_count(Params(1, 1, 1, 1, PrimeField(p)), steps, TreeShape(1))
        else:
            probe = partition_atom_count(Params(1, 1, 1, 1, PrimeField(p)), steps, TreeShape(1))
            assert probe.claimed_atom_count == p ** ball_size(steps)


@LIMITS
@pytest.mark.parametrize("limit", [640, 4300])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_garden_is_refused_as_the_retired_screen_refused_it(limit, data):
    n = data.draw(st.integers(4, 13), label="n")
    order = ball_size(n)
    p = data.draw(st.sampled_from(SOME_PRIMES + boundary_primes(limit, order)), label="p")
    rank = data.draw(st.sampled_from([0, order - 1, order]) | st.integers(0, order), label="rank")
    m = build_rule_matrix(TreeShape(n), Params(1, 1, 1, 1, PrimeField(p)))
    report = LinAlgReport(det=int(rank == order), rank=rank, invertible=rank == order)
    with int_max_str_digits(limit), mock.patch.object(dynamics, "linalg_report",
                                                     lambda _: report):
        refused = retired_garden_refused(order, p, rank, limit)
        event(f"refused: {refused}")
        if refused:
            with pytest.raises(ValueError) as exc:
                garden_report(m)
            with pytest.raises(ValueError) as by_str:
                str(10**limit)
            assert str(exc.value) == str(by_str.value)
        else:
            rep = garden_report(m)
            assert (rep.image_size, rep.garden_count) == (p**rank, p**order - p**rank)


@LIMITS
@pytest.mark.parametrize("limit", [640, 4300])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_an_enumeration_count_is_shown_as_the_retired_screen_showed_it(limit, data):
    p = data.draw(st.sampled_from(SOME_PRIMES + [10]), label="p")
    digits_edge, bits_edge = int(limit / math.log10(p)), 4 * limit // max(p.bit_length() - 1, 1)
    size = data.draw(st.integers(digits_edge - 3, digits_edge + 3)
                     | st.integers(bits_edge - 3, bits_edge + 3), label="size")
    shown = retired_enumeration_shown(size, p, limit)
    event(f"shown: {shown}")
    with int_max_str_digits(limit):
        with pytest.raises(EnumerationTooLarge) as exc:
            _check_enumeration(size, p, 1)
    assert str(exc.value) == f"{p}^{size}" + (f" = {p**size}" if shown else "") + (
        " configurations exceed cap 1")


def test_the_budget_is_the_limit_or_100000_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert digit_budget() == (limit or 100_000)
    with (int_max_str_digits(0) if limit else contextlib.nullcontext()):
        assert digit_budget() == 100_000
        assert printable(10, 99_999, lambda: 10**100_000 - 1) == 10**100_000 - 1
        assert printable(10, 100_000) is None
        assert printable(2, 400_000, lambda: pytest.fail("2^400000 or more was formed")) is None


@LIMITS
@pytest.mark.parametrize("consistent,k,cap,total", [(True, 2126, 1, str(2**2126)),
                                                    (True, 2127, 1, "2^2127"),
                                                    (False, 0, -1, "0")])
def test_a_preimage_count_past_the_budget_is_written_as_a_power(monkeypatch, consistent, k, cap,
                                                                 total):
    """2^2126 has 640 digits and 2^2127 has 641: at limit 640 the second is written 2^k.
    An inconsistent y has 0 preimages, which a negative cap still refuses."""
    zero = np.zeros(10, dtype=np.int64)
    sols = SolutionSet(p=2, order=10, consistent=consistent, particular=zero, kernel=(zero,) * k)
    monkeypatch.setattr(dynamics, "preimages", lambda cfg, m: sols)
    with int_max_str_digits(640), pytest.raises(EnumerationTooLarge) as exc:
        enumerate_preimages(Configuration.zero(TreeShape(2), 2), None, cap=cap)
    assert str(exc.value) == f"{total} preimages exceed cap {cap}"
