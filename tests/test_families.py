"""Tests for sparse perturbation-coefficient families and their file format."""

import numpy as np
import pytest

from revtwist.families import CoefficientFamily, _power_table, load_family, save_family


def test_validation_rules():
    with pytest.raises(ValueError, match="degree"):
        CoefficientFamily({(1, 1): 0.5}, s=1)
    with pytest.raises(ValueError, match="modulus"):
        CoefficientFamily({(3, 0): 1.5}, s=1)
    for bad_s in (0, 1.5, True, "2"):
        with pytest.raises(ValueError, match=r"^s must be (an integer|at least 1), got "):
            CoefficientFamily({(3, 0): 0.5}, s=bad_s)
    assert CoefficientFamily({(3, 0): 0.5}, s=np.int64(1)).s == 1
    with pytest.raises(ValueError, match=r"^index of entry \(-1, 4\) must be at least 0, got -1$"):
        CoefficientFamily({(-1, 4): 0.5}, s=1)
    with pytest.raises(ValueError, match="finite"):
        CoefficientFamily({(4, 0): complex(float("nan"), 0.0)}, s=1)
    # boundary: total degree must strictly exceed 2s
    with pytest.raises(ValueError):
        CoefficientFamily({(2, 2): 0.5}, s=2)
    CoefficientFamily({(3, 2): 0.5}, s=2)


def test_zero_entries_dropped():
    fam = CoefficientFamily({(3, 0): 0.0, (4, 0): 0.25}, s=1)
    assert set(fam.entries) == {(4, 0)}
    assert max(i + j for i, j in fam.entries) == 4
    assert fam.max_modulus() == 0.25
    assert CoefficientFamily.empty(2).entries == {}


def test_hermitian_closure():
    fam = CoefficientFamily({(4, 1): 0.3 + 0.2j}, s=2, hermitian=True)
    assert fam.entries[(1, 4)] == 0.3 - 0.2j
    # explicit consistent mirror is accepted
    CoefficientFamily({(4, 1): 0.3 + 0.2j, (1, 4): 0.3 - 0.2j}, s=2, hermitian=True)
    with pytest.raises(ValueError, match="Hermitian"):
        CoefficientFamily({(4, 1): 0.3 + 0.2j, (1, 4): 0.3 + 0.2j}, s=2, hermitian=True)


def test_eval_matches_naive_sum():
    rng = np.random.default_rng(31)
    fam = CoefficientFamily(
        {(3, 0): 0.2 - 0.1j, (0, 3): 0.4j, (2, 2): -0.3, (5, 1): 0.05}, s=1
    )
    xi = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    eta = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    naive = sum(v * xi**i * eta**j for (i, j), v in fam.entries.items())
    assert np.abs(fam.eval(xi, eta) - naive).max() < 1e-13
    assert fam.eval(0.0, 0.0) == 0.0


def _direct_terms(fam, xi, eta):
    """(i - j, a_{i,j} xi**i eta**j) with numpy's power, entry by entry."""
    return [(i - j, v * xi**i * eta**j) for (i, j), v in fam.entries.items()]


@pytest.mark.parametrize("shape", [(), (7,), "broadcast"])
@pytest.mark.parametrize("empty", [False, True])
def test_shared_power_table_matches_direct_powers(shape, empty):
    # eval and phase_modes raise xi and eta to every power the entries use
    # from one table built by squaring; each power may differ from numpy's
    # x**k by rounding only, so both agree with the direct sum within a few
    # ulp of sum |terms|.
    rng = np.random.default_rng(40)
    keys = {(int(i), int(d - i)) for d in rng.integers(3, 41, 60)
            for i in [rng.integers(0, d + 1)]}
    fam = CoefficientFamily({k: complex(*rng.uniform(-1, 1, 2)) * 0.7 for k in keys}, 1)
    assert max(i + j for i, j in fam.entries) <= 40 and len(fam.entries) > 40
    if empty:
        fam = CoefficientFamily.empty(1)

    def point(size):
        return rng.uniform(0.2, 0.95, size) * np.exp(2j * np.pi * rng.uniform(size=size))

    if shape == "broadcast":
        xi, eta = point((5, 1)), point((1, 4))
    else:
        xi, eta = point(shape), point(shape)
    terms = _direct_terms(fam, xi, eta)
    scale = sum(np.abs(t) for _, t in terms)
    tol = 8 * np.finfo(float).eps * scale
    got = fam.eval(xi, eta)
    assert got.shape == np.broadcast(xi, eta).shape
    assert np.all(np.abs(got - sum(t for _, t in terms)) <= tol)
    modes = fam.phase_modes(xi, eta)
    assert set(modes) == {k for k, _ in terms}
    for k, mk in modes.items():
        assert np.all(np.abs(mk - sum(t for q, t in terms if q == k)) <= tol)


def test_power_table_squares():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    table = _power_table(x, {-5, -2, 0, 1, 2, 3, 17})
    assert table[2].tobytes() == (x * x).tobytes()
    assert table[1] is x and table[0] == 1.0
    assert table[-2].tobytes() == ((1.0 / x) * (1.0 / x)).tobytes()
    for k in (-5, 3, 17):
        assert np.all(np.abs(table[k] - x**k) <= 16 * np.finfo(float).eps * np.abs(x) ** k)
    assert _power_table(x, set()) == {}


def power_oracle(table, k):
    """x^k by squaring, planned on every call: the power table as first
    written, kept as the reference the planned chain must match."""
    if k not in table:
        half = power_oracle(table, int(k / 2))
        table[k] = half * half * table[1 if k > 0 else -1] if k % 2 else half * half
    return table[k]


def power_table_oracle(x, ks):
    table = {0: 1.0, 1: x}
    if min(ks, default=0) < 0:
        table[-1] = 1.0 / x
    return {k: power_oracle(table, k) for k in ks}


@pytest.mark.parametrize("ks", [set(), {0}, {1}, {-1}, {0, 1, 2}, {7, 16, 33},
                                {-7, -2, 0, 3, 12}, set(range(-9, 10)), {-40, 41}])
@pytest.mark.parametrize("shape", [(), (9,), (3, 4)])
def test_power_table_matches_oracle_bitwise(ks, shape):
    rng = np.random.default_rng(len(ks) + len(shape))
    x = 0.9 * np.exp(2j * np.pi * rng.uniform(size=shape)) * rng.uniform(0.5, 1.0, shape)
    # twice: the second call reads the cached chain
    for _ in range(2):
        got, ref = _power_table(x, ks), power_table_oracle(x, ks)
        assert got.keys() == ref.keys()
        for k in ks:
            assert np.shape(got[k]) == np.shape(ref[k])
            assert np.asarray(got[k]).tobytes() == np.asarray(ref[k]).tobytes()


def test_scaled_and_conjugated():
    fam = CoefficientFamily({(3, 1): 0.2 + 0.5j}, s=1)
    assert fam.scaled(2.0).entries[(3, 1)] == 0.4 + 1.0j
    assert fam.conjugated().entries[(3, 1)] == 0.2 - 0.5j
    # scaling may leave the unit ball without tripping validation
    assert fam.scaled(10.0).max_modulus() > 1.0


def test_to_jet_placement():
    fam = CoefficientFamily({(3, 0): 0.5, (2, 2): 0.1j, (9, 9): 0.2}, s=1)
    jet = fam.to_jet(8)
    assert jet.coeff(3, 0) == 0.5
    assert jet.coeff(2, 2) == 0.1j
    assert jet.order == 8


def test_file_round_trip(tmp_path):
    fam = CoefficientFamily(
        {(4, 1): 0.1234567890123456 - 0.7j, (0, 3): 1e-17 + 0.25j}, s=1
    )
    path = tmp_path / "fam.txt"
    save_family(path, fam)
    back = load_family(path, s=1)
    assert set(back.entries) == set(fam.entries)
    for k, v in fam.entries.items():
        assert back.entries[k] == v


def test_load_parses_comments_and_errors(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("# header\n\n3 0 0.5 0.0\n0 3 0.0 -0.25\n")
    fam = load_family(path, s=1)
    assert fam.entries == {(3, 0): 0.5, (0, 3): -0.25j}

    path.write_text("3 0 0.5\n")
    with pytest.raises(ValueError, match="expected"):
        load_family(path, s=1)

    path.write_text("3 0 0.5 0.0\n3 0 0.1 0.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_family(path, s=1)

    path.write_text("x 0 0.5 0.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_family(path, s=1)


def test_load_hermitian_flag(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("4 1 0.3 0.2\n")
    fam = load_family(path, s=2, hermitian=True)
    assert fam.entries[(1, 4)] == 0.3 - 0.2j
