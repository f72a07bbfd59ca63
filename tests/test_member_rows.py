"""Members and member tables from the one row map, against their first versions.

``SchwartzFamily`` derives ``member`` and ``matrix`` from ``_member_rows``;
the Dirac family answers with its point masses, the Fourier family with its
closed form, the kernel family with its table, and every other family with
the superpositions of point masses.  So a member is, word for word, its row
of the table and of every block of rows; and each must give the bits of the
literal copies kept in ``naive.py``, compared as unsigned words.  The
product and scaled families are row maps; their tables keep the words of
the tables first built from ``mu.matrix()`` and ``v.matrix()``.  The same
module checks the Green invertibility check folded into the build, the
Fourier pairing route chosen by value, and the dense-table cap raised before
anything is allocated.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from schwartzcalc import (
    DiracFamily,
    DivisionPolicy,
    FourierFamily,
    GridDistribution,
    IndexOffGrid,
    KernelFamily,
    LazyFamily,
    NotInvertible,
    SymbolFunction,
    TooLarge,
    delta_distribution,
    family_product,
    green_family,
    green_family_divided,
    left_inverse_family,
    make_grid,
    scale_family,
)
from schwartzcalc import families, oracle
from schwartzcalc.grid import _polynomial_symbol

import naive

GRIDS = {
    "1d-64": ([64], [4.0]),
    "2d-6x10": ([6, 10], [2.0, 3.5]),
    "3d-4x6x8": ([4, 6, 8], [1.0, 2.0, 1.5]),
}


def same_words(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(
        x.view(np.uint64), y.view(np.uint64)
    )


def _grid(name):
    counts, extents = GRIDS[name]
    return make_grid(len(counts), counts, extents)


def _symbol(dim, complex_part):
    # a Helmholtz-like symbol, genuinely complex when asked, never zero
    return SymbolFunction(
        dim,
        lambda *p: 1.0 + sum(x**2 for x in p) + complex_part * p[0],
        "helmholtz",
    )


def _assert_members_match(family, old_member, old_matrix):
    index = family.index_grid
    for k in range(index.size):
        p = index.point_at(k)
        assert same_words(family.member(p).samples, old_member(family, p).samples), k
    assert same_words(family.matrix(), old_matrix(family))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_dirac_members_are_bitwise_the_first_versions(name):
    _assert_members_match(DiracFamily(_grid(name)), naive.dirac_member, naive.dirac_matrix)


def _stacked(old_member):
    """The table of the members ``old_member`` gives, one row per index node."""
    def table(family):
        index = family.index_grid
        return np.array([old_member(family, index.point_at(k)).samples for k in range(index.size)])
    return table


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_fourier_members_are_bitwise_the_first_versions(name):
    # the table is the members' rows, so the first members are its reference
    four = FourierFamily(_grid(name))
    _assert_members_match(four, naive.fourier_member, _stacked(naive.fourier_member))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_delta_distribution_is_the_dirac_member(name):
    g = _grid(name)
    dirac = DiracFamily(g)
    for k in range(g.size):
        p = g.point_at(k)
        assert same_words(delta_distribution(g, p).samples, dirac.member(p).samples), k
        assert same_words(delta_distribution(g, p).samples, naive.dirac_member(dirac, p).samples), k


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_kernel_members_are_bitwise_the_first_versions(name):
    g = _grid(name)
    rng = np.random.default_rng(len(name))
    table = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
    table[::7, ::3] = -0.0
    kern = KernelFamily(g, g, table)
    _assert_members_match(kern, naive.kernel_member, naive.kernel_matrix)
    # the table rows are handed out read-only
    assert not kern.matrix().flags.writeable
    assert not kern.member(g.point_at(1)).samples.flags.writeable


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_left_inverse_members_are_bitwise_the_first_versions(name):
    mu = left_inverse_family(FourierFamily(_grid(name)))
    assert isinstance(mu, LazyFamily)
    _assert_members_match(mu, naive.lazy_member, naive.lazy_matrix)


@pytest.mark.parametrize("divided", [False, True], ids=["reciprocal", "divided"])
@pytest.mark.parametrize("operator", ["fourier", "dirac"])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_green_members_are_bitwise_the_first_versions(name, operator, divided):
    g = _grid(name)
    lam = FourierFamily(g) if operator == "fourier" else DiracFamily(g)
    build = green_family_divided if divided else green_family
    l = _symbol(g.dim, 0.25j)
    result = build(lam, l, left_inverse_family(lam))
    _assert_members_match(result.family, naive.lazy_member, naive.lazy_matrix)
    # the row map is the family's own: the dense table built step by step is
    # the reference that does not go through it
    table, _ = naive.dense_green(lam, l, divided=divided)
    _assert_members_match(
        result.family, lambda fam, p: GridDistribution(g, table[g.index_of(p)]), lambda fam: table
    )


PRODUCT_PAIRS = {
    "fourier-left-inverse": lambda g: (left_inverse_family(FourierFamily(g)), FourierFamily(g)),
    "dirac": lambda g: (DiracFamily(g), DiracFamily(g)),
    "dirac-left-inverse": lambda g: (left_inverse_family(DiracFamily(g)), DiracFamily(g)),
    "kernel-over-dirac": lambda g: (KernelFamily(g, g, DiracFamily(g).matrix()), DiracFamily(g)),
}


@pytest.mark.parametrize("pair", sorted(PRODUCT_PAIRS))
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_product_tables_are_bitwise_the_first_versions(name, pair):
    # the product is a row map; its table is the one first built from mu's table
    mu, lam = PRODUCT_PAIRS[pair](_grid(name))
    product = family_product(mu, lam)
    assert isinstance(product, LazyFamily)
    assert same_words(product.matrix(), lam.superpose_rows(mu.matrix()))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_dirac_scaled_tables_are_bitwise_the_first_versions(name):
    g = _grid(name)
    dirac = DiracFamily(g)
    # a symbol with a positive real part: the first version's words, signed zeros included
    a = _symbol(g.dim, 0.25j)
    a_values = a.sample(g)
    assert same_words(scale_family(a, dirac).matrix(), a_values[:, np.newaxis] * naive.point_masses(g))
    # any symbol: the row map scales point mass k by a at node k, so the
    # zeros of column j are a(q_j) * 0, signed by the column's value
    a = SymbolFunction(g.dim, lambda *p: (p[0] - 0.3) * (1 - 0.5j) + 0.1j * p[-1] ** 3, "cubic")
    a_values = a.sample(g)
    table = scale_family(a, dirac).matrix()
    assert same_words(table, a_values * naive.point_masses(g))
    np.testing.assert_array_equal(table, a_values[:, np.newaxis] * naive.point_masses(g))


def test_off_grid_members_raise_index_off_grid():
    g = _grid("2d-6x10")
    lam = FourierFamily(g)
    kern = KernelFamily(g, g, np.eye(g.size))
    green = green_family(lam, _symbol(2, 0.0), left_inverse_family(lam)).family
    off = (0.1, 0.0)
    for family, old_member in (
        (DiracFamily(g), naive.dirac_member),
        (lam, naive.fourier_member),
        (kern, naive.kernel_member),
        (left_inverse_family(lam), naive.lazy_member),
        (green, naive.lazy_member),
    ):
        with pytest.raises(IndexOffGrid) as got:
            family.member(off)
        with pytest.raises(IndexOffGrid) as want:
            old_member(family, off)
        assert str(got.value) == str(want.value)
    with pytest.raises(IndexOffGrid) as got:
        delta_distribution(g, off)
    with pytest.raises(IndexOffGrid) as want:
        naive.dirac_member(DiracFamily(g), off)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the member contract: a member is its row of the table and of every block


def _even_symbol(dim):
    # 1 + |p|^2, known to be real and even: its Green members are real
    terms = [((0,) * dim, 1.0)] + [(tuple(2 * (a == i) for a in range(dim)), 1.0) for i in range(dim)]
    return _polynomial_symbol(dim, terms, "1+|p|^2")


def _kernel(g):
    rng = np.random.default_rng(g.size)
    table = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
    return KernelFamily(g, g, table)


def _green(lam, l):
    return green_family(lam, l, left_inverse_family(lam)).family


CONTRACT_FAMILIES = {
    "dirac": DiracFamily,
    "fourier": FourierFamily,
    "kernel": _kernel,
    "fourier-left-inverse": lambda g: left_inverse_family(FourierFamily(g)),
    "dirac-left-inverse": lambda g: left_inverse_family(DiracFamily(g)),
    "green-real-even": lambda g: _green(FourierFamily(g), _even_symbol(g.dim)),
    "green-complex": lambda g: _green(FourierFamily(g), _symbol(g.dim, 0.25j)),
    "green-dirac": lambda g: _green(DiracFamily(g), _symbol(g.dim, 0.25j)),
    "scale": lambda g: scale_family(_symbol(g.dim, 0.25j), FourierFamily(g)),
    "product": lambda g: family_product(left_inverse_family(FourierFamily(g)), FourierFamily(g)),
}


@pytest.mark.parametrize("family", sorted(CONTRACT_FAMILIES))
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_members_are_the_rows_of_the_table_and_of_every_block(name, family):
    fam = CONTRACT_FAMILIES[family](_grid(name))
    table = fam.matrix()
    assert table.dtype == (np.float64 if family == "green-real-even" else np.complex128)
    index = fam.index_grid
    for k in range(index.size):
        assert same_words(fam.member(index.point_at(k)).samples, table[k].astype(np.complex128)), k
    n = index.size
    for start, stop in ((0, 5), (n // 2 - 3, n // 2 + 4), (n - 6, n)):
        assert same_words(fam._member_rows(start, stop), table[start:stop]), (start, stop)


def test_a_point_within_the_node_tolerance_gives_the_nodes_fourier_member():
    lam = FourierFamily(_grid("2d-6x10"))
    p = lam.index_grid.point_at(37)
    near = tuple(x + 1e-10 * dp for x, dp in zip(p, lam.index_grid.spacings))
    assert same_words(lam.member(near).samples, lam.member(p).samples)


@pytest.mark.parametrize("counts", [[2**20], [1024, 1024]])
def test_one_fourier_member_at_2_20_nodes_holds_at_most_three_complex_arrays(counts):
    # the row is built as 2.5 complex arrays on any grid shape: the phase,
    # its product with -1j and the exponential; the meshes are gone by then
    lam = FourierFamily(make_grid(len(counts), counts, [3.0] * len(counts)))
    p = lam.index_grid.point_at(12345)
    tracemalloc.start()
    try:
        lam.member(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 64 KiB for what is not an array
    assert peak <= 3 * 16 * 2**20 + 2**16, f"peak {peak / (16 * 2**20):.2f} complex arrays"


@pytest.mark.parametrize(
    "name, symbol, policy",
    [
        ("1d-64", lambda p: -1j * p, None),
        ("2d-6x10", lambda p, q: p * q - 1j * q, None),
        ("2d-6x10", lambda p, q: 1.0 + p**2 + q**2, DivisionPolicy(zero_threshold=sys.float_info.max)),
        ("2d-6x10", lambda p, q: 1.0 + p**2 + q**2, DivisionPolicy(zero_threshold=1.0)),
        ("1d-64", lambda p: 1.0 + p**2, None),
    ],
)
def test_invertibility_check_is_the_first_version(name, symbol, policy):
    g = _grid(name)
    lam = FourierFamily(g)
    l = SymbolFunction(g.dim, symbol, "l")
    l_values = l.sample(lam.index_grid)
    eps = (policy or DivisionPolicy()).resolve_zero_threshold(l_values)
    try:
        naive.check_invertible(lam, l_values, eps)
    except NotInvertible as exc:
        want = exc
    else:
        want = None
    if want is None:
        green_family(lam, l, left_inverse_family(lam), policy)
        return
    with pytest.raises(NotInvertible) as got:
        green_family(lam, l, left_inverse_family(lam), policy)
    assert str(got.value) == str(want)
    assert got.value.worst_index == want.worst_index
    assert got.value.worst_point == want.worst_point
    assert got.value.magnitude == want.magnitude


# ---------------------------------------------------------------------------
# the Fourier pairing route, decided by value


def _refuse_dense(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense Green table was built")

    monkeypatch.setattr(LazyFamily, "matrix", refuse)


def test_left_inverse_of_another_fourier_instance_pairs_by_translation(monkeypatch):
    g = make_grid(2, [16, 8], [3.0, 2.0])
    lam = FourierFamily(g)
    l = _symbol(2, 0.25j)
    same = green_family(lam, l, left_inverse_family(lam))
    _refuse_dense(monkeypatch)
    other = green_family(lam, l, left_inverse_family(FourierFamily(lam.space_grid)))
    assert same_words(other.weak_residuals, same.weak_residuals)


def test_fourier_analysis_of_another_grid_pairs_densely(monkeypatch):
    # same counts, other extents: the row map is not the left inverse of lam
    g = make_grid(1, [32], [2.0])
    lam = FourierFamily(g)
    foreign = FourierFamily(make_grid(1, [32], [3.0]))
    mu = LazyFamily(g, lam.index_grid, foreign.coordinates_rows)
    built = []
    original = LazyFamily.matrix

    def counting(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(LazyFamily, "matrix", counting)
    green_family(lam, _symbol(1, 0.0), mu)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# one dense cap, checked before allocation


def test_dense_cap_lives_in_families_and_is_reexported_by_oracle():
    assert oracle.MAX_DENSE_POINTS is families.MAX_DENSE_POINTS == 4096
    families._check_dense(4096, 4096)
    families._check_dense(1, 4096 * 4096)
    with pytest.raises(TooLarge):
        families._check_dense(4096, 4097)


def test_dense_tables_above_the_cap_raise_before_allocating():
    # 72^2 = 5184 nodes: one member table would take 410 MiB
    g = make_grid(2, [72, 72], [4.0, 4.0])
    lam = FourierFamily(g)
    lazy = LazyFamily(g, g, lambda rows: rows)
    for build in (lazy.matrix, DiracFamily(g).matrix, lam.matrix,
                  lambda: families.point_mass_rows(g, 0, g.size)):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    # single members stay available
    assert lazy.member(g.point_at(7)).samples[7] == 1.0 / g.cell_volume


def test_green_on_a_dirac_family_above_the_cap_refuses():
    # a caller-supplied left inverse (here the Dirac one, as a map) is
    # paired through the dense table, which the cap refuses; the canonical
    # Dirac left inverse pairs the diagonal of L G and needs no table
    g = make_grid(2, [72, 72], [4.0, 4.0])
    dirac = DiracFamily(g)
    supplied = LazyFamily(g, g, lambda rows: np.array(rows, dtype=np.complex128))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            green_family(dirac, _symbol(2, 0.0), supplied)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the symbol samples and the generating map, no N x N table
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    result = green_family(dirac, _symbol(2, 0.0), left_inverse_family(dirac))
    assert result.max_weak_residual() < 1e-12
