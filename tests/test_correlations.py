"""Tests for the two-mode correlation quantifiers.

Covers the partial-transpose spectrum, logarithmic negativity, binary
entropy, Gaussian discord, mutual information (halved; the usual convention
is twice it), and the one-pass report, on closed-form states (vacuum, TMSV,
thermal products) and on seeded random squeezed thermal families.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lossprobe import correlations
from lossprobe.channel import LossChannel, output_params_two
from lossprobe.cli import main
from lossprobe.correlations import (
    CorrelationReport,
    binary_entropy_h,
    correlation_report,
    discord,
    log_negativity,
    mutual_information,
    pt_symplectic_eigenvalues,
)
from lossprobe.gaussian import (
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    make_two_mode_st,
    symplectic_eigenvalues,
    symplectic_invariants,
)
from lossprobe.probes import ProbeSpec, params_from_spec, random_probes

LN2 = math.log(2.0)


def two_mode_vacuum() -> SqueezedThermalParamsTwo:
    return SqueezedThermalParamsTwo(r=0.0, n_t1=0.0, n_t2=0.0)


def tmsv(r: float) -> SqueezedThermalParamsTwo:
    return SqueezedThermalParamsTwo(r=r, n_t1=0.0, n_t2=0.0)


def thermal_product(n1: float, n2: float) -> SqueezedThermalParamsTwo:
    return SqueezedThermalParamsTwo(r=0.0, n_t1=n1, n_t2=n2)


def probe(n: float, beta: float, gamma: float) -> SqueezedThermalParamsTwo:
    return params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=gamma))


def bits_and_nats(capsys, n: float, beta: float) -> tuple[dict, dict]:
    """JSON payloads of `correlations` with and without --bits.

    The quantifiers report nats; bits are a unit of the command line only.
    """
    out = []
    for extra in (["--bits"], []):
        argv = ["correlations", "--n", str(n), "--beta", str(beta), "--format", "json"]
        assert main(argv + extra) == 0
        out.append(json.loads(capsys.readouterr().out))
    return out[0], out[1]


def seeded_states(count: int, seed: int = 20240518) -> list[SqueezedThermalParamsTwo]:
    """Random two-mode squeezed thermal states from a fixed Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for _ in range(count):
        r = rng.uniform(0.05, 1.8)
        n1 = rng.uniform(0.0, 2.0)
        n2 = rng.uniform(0.0, 2.0)
        out.append(SqueezedThermalParamsTwo(r=r, n_t1=n1, n_t2=n2))
    return out


@pytest.fixture(scope="module")
def sample_bank() -> list[SqueezedThermalParamsTwo]:
    return seeded_states(1000)


# ---------------------------------------------------------------------------
# partial-transpose spectrum
# ---------------------------------------------------------------------------


def test_pt_eigenvalues_vacuum():
    d_plus, d_minus = pt_symplectic_eigenvalues(make_two_mode_st(two_mode_vacuum()))
    assert math.isclose(d_plus, 0.5, rel_tol=1e-12)
    assert math.isclose(d_minus, 0.5, rel_tol=1e-12)


@pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
def test_pt_eigenvalues_tmsv(r):
    d_plus, d_minus = pt_symplectic_eigenvalues(make_two_mode_st(tmsv(r)))
    assert math.isclose(d_minus, math.exp(-2 * r) / 2, rel_tol=1e-10)
    assert math.isclose(d_plus, math.exp(2 * r) / 2, rel_tol=1e-10)


def test_pt_eigenvalues_thermal_product_match_ordinary():
    # With no correlations the partial transpose changes nothing.
    cm = make_two_mode_st(thermal_product(0.3, 1.2))
    d = symplectic_eigenvalues(cm)
    dt = pt_symplectic_eigenvalues(cm)
    assert math.isclose(dt[0], d[0], rel_tol=1e-12)
    assert math.isclose(dt[1], d[1], rel_tol=1e-12)
    assert math.isclose(dt[0], 1.7, rel_tol=1e-12)
    assert math.isclose(dt[1], 0.8, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# logarithmic negativity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n1,n2", [(0.0, 0.0), (0.5, 0.5), (2.0, 0.1)])
def test_log_negativity_product_states_zero(n1, n2):
    assert log_negativity(thermal_product(n1, n2)) == 0.0


@pytest.mark.parametrize("r", [0.2, 1.0, 1.5])
def test_log_negativity_tmsv(r):
    assert math.isclose(log_negativity(tmsv(r)), 2 * r, rel_tol=1e-10)


@pytest.mark.bits
def test_log_negativity_bits_rescales(capsys):
    bits, nats = bits_and_nats(capsys, n=2.0, beta=1.0)
    assert bits["units"] == "bits" and nats["units"] == "nats"
    assert math.isclose(nats["log_negativity"], log_negativity(tmsv(math.asinh(1.0))), rel_tol=1e-12)
    assert math.isclose(bits["log_negativity"], nats["log_negativity"] / LN2, rel_tol=1e-12)


def test_entanglement_dies_as_thermal_noise_grows():
    # At small squeezing, raising n_t1 pushes the smaller PT eigenvalue up
    # through 1/2; locate the crossing and check E vanishes beyond it.
    # Noise on one input alone never gets there (d_minus saturates just
    # below 1/2 as n_t1 -> infinity), so a small fixed n_t2 rides along.
    r, n2 = 0.1, 0.05

    def d_minus(n1: float) -> float:
        cm = make_two_mode_st(SqueezedThermalParamsTwo(r=r, n_t1=n1, n_t2=n2))
        return pt_symplectic_eigenvalues(cm)[1]

    lo, hi = 0.0, 2.0
    assert d_minus(lo) < 0.5 < d_minus(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if d_minus(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)

    below = SqueezedThermalParamsTwo(r=r, n_t1=crossing - 0.01, n_t2=n2)
    above = SqueezedThermalParamsTwo(r=r, n_t1=crossing + 0.01, n_t2=n2)
    assert log_negativity(below) > 0.0
    assert log_negativity(above) == 0.0


def test_one_sided_noise_never_disentangles():
    # The saturation that motivates the fixed n_t2 above: with n_t2 = 0 the
    # smaller PT eigenvalue stays strictly below 1/2 however hot mode 1 runs.
    for n1 in (1.0, 10.0, 1e4):
        p = SqueezedThermalParamsTwo(r=0.1, n_t1=n1, n_t2=0.0)
        assert pt_symplectic_eigenvalues(make_two_mode_st(p))[1] < 0.5
        assert log_negativity(p) > 0.0


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------


def test_binary_entropy_frozen_values():
    assert binary_entropy_h(0.5) == 0.0
    assert math.isclose(binary_entropy_h(1.5), 2 * LN2, rel_tol=1e-12)
    assert math.isclose(binary_entropy_h(1.0), 0.95477125244, rel_tol=1e-10)


def test_binary_entropy_domain_error():
    with pytest.raises(ValueError):
        binary_entropy_h(0.4)


def test_binary_entropy_array_is_its_scalar_calls_and_the_per_element_formula():
    # one route for floats and arrays: numpy's log over the whole array and
    # numpy algebra, the same bits as the per-element formula with np.log
    def per_element(x):
        lo = max(x - 0.5, 0.0)
        out = (x + 0.5) * np.log(x + 0.5)
        return out - lo * np.log(lo) if lo > 0.0 else out

    special = [0.5, 0.5 - 5e-10, 0.5 + 1e-16, 0.5 + 1e-12, 0.75, 1.0, 1.5, 1e6, 1e300]
    xs = np.concatenate([special, np.linspace(0.5, 50.0, 2001), 0.5 + np.geomspace(1e-15, 1e3, 500)])
    h = binary_entropy_h(xs.reshape(5, -1))
    assert h.shape == (5, 502)
    assert h.ravel().tolist() == [binary_entropy_h(x) for x in xs.tolist()] == [per_element(x) for x in xs.tolist()]
    assert binary_entropy_h(0.5) == 0.0 and type(binary_entropy_h(0.5)) is float


def test_binary_entropy_strictly_increasing():
    xs = np.linspace(0.5, 6.0, 200)
    hs = [binary_entropy_h(float(x)) for x in xs]
    diffs = np.diff(hs)
    assert np.all(diffs > 0.0)


# ---------------------------------------------------------------------------
# discord
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n1,n2", [(0.0, 0.0), (0.7, 0.2)])
def test_discord_product_states_zero(n1, n2):
    assert abs(discord(thermal_product(n1, n2))) < 1e-12


@pytest.mark.parametrize("r", [0.2, 0.5, 1.0, 1.5])
def test_discord_tmsv_equals_entanglement_entropy(r):
    expected = binary_entropy_h(math.cosh(2 * r) / 2)
    assert math.isclose(discord(tmsv(r)), expected, rel_tol=1e-10)


@pytest.mark.bits
def test_discord_bits_rescales(capsys):
    bits, nats = bits_and_nats(capsys, n=1.5, beta=0.6)
    assert math.isclose(bits["discord"], nats["discord"] / LN2, rel_tol=1e-12)
    # d_tilde_minus is a symplectic eigenvalue, not an information quantity
    assert "d_tilde_minus" in nats and "d_tilde_minus" not in bits


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mutual_information_product_state_zero():
    assert mutual_information(thermal_product(0.9, 0.4)) == 0.0


@pytest.mark.parametrize("r", [0.2, 0.5, 1.0, 1.5])
def test_mutual_information_tmsv(r):
    # Halved convention: for a pure state I coincides with the entanglement
    # entropy rather than twice it.
    expected = binary_entropy_h(math.cosh(2 * r) / 2)
    assert math.isclose(mutual_information(tmsv(r)), expected, rel_tol=1e-10)


@pytest.mark.bits
def test_mutual_information_bits_rescales(capsys):
    bits, nats = bits_and_nats(capsys, n=0.7, beta=0.3)
    assert math.isclose(
        bits["mutual_information"], nats["mutual_information"] / LN2, rel_tol=1e-12
    )


def test_discord_can_exceed_halved_mutual_information():
    # The data-processing inequality I >= D holds for the standard
    # (unhalved) mutual information; the halved variant reported by default
    # can dip below the discord on mixed states.  Frozen counterexample so
    # the convention choice stays visible.
    p = probe(n=1.0, beta=0.5, gamma=1.0)
    d = discord(p)
    i_half = mutual_information(p)
    i_std = 2.0 * mutual_information(p)
    assert math.isclose(d, 0.625503029423, rel_tol=1e-9)
    assert math.isclose(i_half, 0.560843055841, rel_tol=1e-9)
    assert d > i_half
    assert i_std >= d


def test_unhalved_mutual_information_dominates_discord(sample_bank):
    for p in sample_bank:
        i_std = 2.0 * mutual_information(p)
        assert i_std + 1e-10 >= discord(p)


# ---------------------------------------------------------------------------
# sampled implications
# ---------------------------------------------------------------------------


def test_strong_discord_implies_entanglement(sample_bank):
    strong = 0
    for p in sample_bank:
        if discord(p) > 1.0:
            strong += 1
            assert log_negativity(p) > 0.0
    # The implication must not hold vacuously.
    assert strong > 10


def test_entanglement_iff_pt_eigenvalue_below_half(sample_bank):
    for p in sample_bank:
        e = log_negativity(p)
        _, d_minus = pt_symplectic_eigenvalues(make_two_mode_st(p))
        if d_minus < 0.5 - 1e-12:
            assert e > 0.0
        else:
            assert e == 0.0


def test_pure_probe_degeneracy():
    # With the whole budget in squeezing the probe is pure and all three
    # quantifiers collapse onto the entanglement entropy h(sqrt(I1));
    # the negativity equals twice the squeezing parameter.
    for n in (0.5, 1.0, 3.0):
        p = params_from_spec(ProbeSpec(modes=2, n=n, beta=1.0))
        i1 = symplectic_invariants(make_two_mode_st(p))[0]
        ent = binary_entropy_h(math.sqrt(i1))
        assert abs(discord(p) - ent) < 1e-10
        assert abs(mutual_information(p) - ent) < 1e-10
        assert math.isclose(log_negativity(p), 2 * p.r, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# bundled report
# ---------------------------------------------------------------------------


def test_report_vacuum_all_zero():
    rep = correlation_report(two_mode_vacuum())
    assert rep.log_negativity == 0.0
    assert rep.discord == 0.0
    assert rep.mutual_information == 0.0
    assert math.isclose(rep.d_tilde_minus, 0.5, rel_tol=1e-12)


def test_report_tmsv_unit_squeezing():
    rep = correlation_report(tmsv(1.0))
    ent = binary_entropy_h(math.cosh(2.0) / 2)
    assert math.isclose(rep.log_negativity, 2.0, rel_tol=1e-10)
    assert math.isclose(rep.discord, ent, rel_tol=1e-10)
    assert math.isclose(rep.mutual_information, ent, rel_tol=1e-10)


@pytest.mark.parametrize("f", [correlation_report, log_negativity, discord, mutual_information])
def test_one_mode_parameters_raise_type_error(f):
    # the quantifiers take two-mode parameters; a one-mode state has no pair of modes
    with pytest.raises(TypeError, match="SqueezedThermalParamsSingle"):
        f(SqueezedThermalParamsSingle(r=0.5, n_t=0.1))


@pytest.mark.bits
def test_report_matches_standalone_functions(sample_bank):
    for p in sample_bank[:50]:
        rep = correlation_report(p)
        assert rep.log_negativity == log_negativity(p)
        assert rep.discord == discord(p)
        assert rep.mutual_information == mutual_information(p)
        expected_e = max(0.0, -math.log(2.0 * rep.d_tilde_minus))
        assert math.isclose(rep.log_negativity, expected_e, abs_tol=1e-12)


def test_report_computes_each_spectrum_and_entropy_once(monkeypatch):
    # one pass: one set of invariants, one ordinary and one partial-transpose
    # spectrum (from those invariants), and one entropy per distinct argument
    # h(sqrt I1), h(sqrt I2), h(d+), h(d-), h(w)
    calls = {}
    for name in ("symplectic_invariants", "symplectic_eigenvalues", "_pt_eigenvalues", "binary_entropy_h"):
        def counted(*args, _f=getattr(correlations, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)

        monkeypatch.setattr(correlations, name, counted)
    n, beta, _ = random_probes(50, seed=7)
    correlation_report(params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=0.999)))
    assert calls == {"symplectic_invariants": 1, "symplectic_eigenvalues": 1, "_pt_eigenvalues": 1, "binary_entropy_h": 5}


@pytest.mark.parametrize("n", ["68.12920690579611", "1e4"])
def test_balanced_thermal_product_passes_the_discriminant_check(capsys, n):
    # beta = 0, gamma = 0.5: equal thermal inputs, so Delta_tilde^2 - 4 I4
    # is 0 up to roundoff of size Delta_tilde^2 ~ N^4, which an absolute
    # floor rejected
    argv = ["correlations", "--n", n, "--beta", "0", "--gamma", "0.5", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_negativity"] == 0.0
    assert math.isclose(payload["d_tilde_minus"], 0.5 + float(n) / 2, rel_tol=1e-12)
    assert 0.0 <= payload["discord"] < 1e-9 and 0.0 <= payload["mutual_information"] < 1e-9


@pytest.mark.parametrize("beta", [0.1, 0.9])
def test_quantifiers_increase_with_energy(beta):
    # Along the fixed-fraction probe family all three quantifiers grow with
    # the photon budget.
    ns = np.linspace(0.25, 5.0, 20)
    reports = [correlation_report(probe(float(n), beta, 0.999)) for n in ns]
    es = [r.log_negativity for r in reports]
    ds = [r.discord for r in reports]
    is_ = [r.mutual_information for r in reports]
    assert all(b > a for a, b in zip(es, es[1:]))
    assert all(b > a for a, b in zip(ds, ds[1:]))
    assert all(b > a for a, b in zip(is_, is_[1:]))


# ---------------------------------------------------------------------------
# independent route on the probe family
# ---------------------------------------------------------------------------

# Vacuum variance 1 here, and the symplectic form as a matrix, so the route
# below shares no invariant, closed-form spectrum or entropy helper with the
# package.
OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
TRANSPOSE_P2 = np.diag([1.0, 1.0, 1.0, -1.0])


def thermal_entropy(x: float) -> float:
    """Entropy of a mode with symplectic eigenvalue x >= 1 (vacuum 1 units)."""
    lo = 0.5 * (x - 1.0)
    out = 0.5 * (x + 1.0) * math.log(0.5 * (x + 1.0))
    return out - lo * math.log(lo) if lo > 0.0 else out


def numeric_spectrum(sigma: np.ndarray) -> tuple[float, float]:
    """(nu-, nu+) from the eigenvalues +-nu of i Omega sigma."""
    nu = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ sigma)))
    return float(nu[0]), float(nu[2])


def independent_quantifiers(r: float, n1: float, n2: float) -> tuple[float, float, float]:
    """E, D and halved I (nats) of S(r) (thermal) S(r)^T, built from scratch.

    D is the Gaussian discord of Adesso & Datta, PRL 105, 030501 (2010),
    with the measurement on the second mode.
    """
    c, s = math.cosh(r), math.sinh(r)
    z = np.diag([1.0, -1.0])
    squeezer = np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
    thermal = np.diag([2 * n1 + 1, 2 * n1 + 1, 2 * n2 + 1, 2 * n2 + 1])
    sigma = squeezer @ thermal @ squeezer.T
    nu_minus, nu_plus = numeric_spectrum(sigma)
    e = max(0.0, -math.log(numeric_spectrum(TRANSPOSE_P2 @ sigma @ TRANSPOSE_P2)[0]))

    a = np.linalg.det(sigma[:2, :2])
    b = np.linalg.det(sigma[2:, 2:])
    cc = np.linalg.det(sigma[:2, 2:]) ** 2
    d = np.linalg.det(sigma)
    mixed = thermal_entropy(nu_minus) + thermal_entropy(nu_plus)
    i = 0.5 * (thermal_entropy(math.sqrt(a)) + thermal_entropy(math.sqrt(b)) - mixed)
    if (d - a * b) ** 2 <= (1 + b) * cc * (a + d):
        root = math.sqrt(cc + (b - 1) * (d - a))
        e_min = (2 * cc + (b - 1) * (d - a) + 2 * math.sqrt(cc) * root) / (b - 1) ** 2
    else:
        root = math.sqrt(cc * cc + (d - a * b) ** 2 - 2 * cc * (a * b + d))
        e_min = (a * b - cc + d - root) / (2 * b)
    disc = thermal_entropy(math.sqrt(b)) - mixed + thermal_entropy(math.sqrt(e_min))
    return e, disc, i


def test_report_matches_independent_route_on_probe_family():
    # The gamma-bar 0.999 family with beta uniform on [0, 1), drawn from the
    # per-index Philox stream of acceptance criterion 8, so the low-beta
    # region where E and I rank states differently across beta is covered.
    # Over the criterion's 10 000 draws the worst gaps are 7e-13 (E) and
    # 8e-12 (I) relative, and 8e-9 absolute for D, which sits at N < 0.01
    # where entropy arguments approach the vacuum and (x - 1) ln(x - 1)
    # amplifies roundoff.
    low_beta = 0
    for n, beta, _ in zip(*random_probes(1000, seed=20240520)):
        low_beta += beta < 0.2
        p = params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=0.999))
        rep = correlation_report(p)
        e, d, i = independent_quantifiers(p.r, p.n_t1, p.n_t2)
        assert math.isclose(rep.log_negativity, e, rel_tol=1e-10), (n, beta)
        assert math.isclose(rep.mutual_information, i, rel_tol=1e-10), (n, beta)
        assert abs(rep.discord - d) <= 1e-7, (n, beta)
    assert low_beta > 150


# The CM route loses digits roughly like eps N^2: from N = 100 on it misses
# the decimal route by factors of 65 (N = 100) to 2e8 (N = 1e6).  A closed form
# in the parameters with the entropy and w free of cancellation stays within
# 23 eps of the entropy sum over the whole grid; 256 leaves room for other
# platforms' last-bit rounding.  Below N = 100 the CM route's worst is 137
# (E at N = 1e-3).
DECIMAL_BOUND_EPS = 256
CM_ROUTE_MISS = pytest.mark.xfail(strict=True, reason="the CM route loses digits like eps N^2 (ROADMAP item 4)")


@pytest.mark.parametrize("n", [1e-3, 1e-2, 0.1, 1.0, 10.0] + [pytest.param(n, marks=CM_ROUTE_MISS)
                                                              for n in (100.0, 1e3, 1e4, 1e5, 1e6)])
def test_report_matches_the_decimal_route(n):
    # E, D and I against tests/reference.py's 60-digit route from (r, n_t1,
    # n_t2), within DECIMAL_BOUND_EPS eps of the sum of the five entropies
    # (at least 1), at every (beta, gamma) of the grid
    eps = np.finfo(float).eps
    misses = []
    for beta, gamma in itertools.product((0.0, 0.05, 0.5, 0.9, 1.0), (0.0, 0.5, 0.999, 1.0)):
        p = probe(n, beta, gamma)
        rep = correlation_report(p)
        e, d, i, entropies = reference.correlations(p)
        bound = DECIMAL_BOUND_EPS * eps * max(1.0, entropies)
        got = (rep.log_negativity, rep.discord, rep.mutual_information)
        misses += [(beta, gamma, name, abs(x - y) / (eps * max(1.0, entropies)))
                   for name, x, y in zip("EDI", got, (e, d, i)) if abs(x - y) > bound]
    assert not misses, misses


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=2.0),
    n1=st.floats(min_value=0.0, max_value=3.0),
    n2=st.floats(min_value=0.0, max_value=3.0),
)
def test_quantifiers_finite_and_nonnegative(r, n1, n2):
    rep = correlation_report(SqueezedThermalParamsTwo(r=r, n_t1=n1, n_t2=n2))
    for value in (rep.log_negativity, rep.discord, rep.mutual_information):
        assert math.isfinite(value)
        assert value >= 0.0
    assert rep.d_tilde_minus > 0.0


@pytest.mark.bits
def test_quantifiers_are_the_same_bits_on_a_stack():
    # 1,000 random_probes inputs and their lossy outputs, each as one stack
    n, beta, gamma_ch = random_probes(1000, seed=20261018)
    p_in = params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=0.999))
    p_out = output_params_two(p_in, LossChannel.from_gamma(gamma_ch))
    functions = (log_negativity, discord, mutual_information)
    for p in (p_in, p_out):
        pt_stacked = pt_symplectic_eigenvalues(make_two_mode_st(p))
        stacked = [f(p) for f in functions]
        assert np.array_equal(correlation_report(p).discord, stacked[1])
        for k in range(1000):
            row = p.row(k)
            assert pt_symplectic_eigenvalues(make_two_mode_st(row)) == (pt_stacked[0][k], pt_stacked[1][k]), k
            for f, values in zip(functions, stacked):
                assert f(row) == values[k], (f.__name__, k)
