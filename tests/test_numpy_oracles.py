"""The small-vector metrics against the numpy formulas they once ran.

Eleven functions sum a few short vectors. They used to do it with numpy;
they now use ``math.fsum``, ``math.dist`` and ``Counter``. Each ``np_*``
function below is the numpy formula as the library last ran it, kept as
the oracle.

Tolerance. ``math.fsum`` rounds each sum once; numpy's pairwise sums and
``np.linalg.norm`` round at each step. So the two agree to a few ulps, not
bit for bit. Every comparison allows a relative error of 1e-12, and an
absolute error of 1e-12 where the value is a difference of sums of order 1
(a correlation, R², a conditional mutual information, an entropy, an
area difference over a grid of width at most 2000, scaled by that width).

Magnitudes. ``pearson_abs``, ``normalized_variance`` and
``r_squared_transitions`` are also drawn at 1e±300 and 2**±1000. The first
two scaled their series by a power of two before, so their oracles run
unchanged. The old ``r_squared_transitions`` squared unscaled residuals,
which overflow or underflow at those magnitudes. R² does not change when
the series is scaled, so its oracle runs on the series scaled into
[-1, 1] by a power of two, which is exact.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privmetrics import adversary, infogain, tabular, uncertainty
from privmetrics.core import DiscreteDistribution, _entropy_bits, _exponent, _normalized
from privmetrics.errors import DegenerateError, DomainError

REL = ABS = 1e-12


def close(new, old, abs_tol=0.0):
    return math.isclose(new, old, rel_tol=REL, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# The numpy formulas


def np_expected_estimation_error(e):
    t = np.asarray(e.coords[e.truth], dtype=float)
    total = 0.0
    for label, p in zip(e.posterior.labels, e.posterior.probs):
        total += p * float(np.linalg.norm(np.asarray(e.coords[label]) - t))
    return total


def np_mean_squared_error(truths, observations):
    total = 0.0
    for t, o in zip(truths, observations):
        ta = np.atleast_1d(np.asarray(t, dtype=float))
        oa = np.atleast_1d(np.asarray(o, dtype=float))
        total += float(((ta - oa) ** 2).sum())
    return total / len(truths)


def np_d_area(f1, f2):
    def ecdf_area(samples, grid):
        s = np.sort(np.asarray(samples, dtype=float))
        f = np.searchsorted(s, grid, side="right") / len(s)
        return float(np.trapezoid(f, grid))

    grid = np.unique(np.concatenate([np.asarray(f1, float), np.asarray(f2, float)]))
    return abs(ecdf_area(f1, grid) - ecdf_area(f2, grid))


def np_conditional_mutual_information(tensor):
    t = np.asarray(tensor, dtype=float)
    t = np.reshape(_normalized(t.ravel().tolist(), "tensor mass"), t.shape)

    def h(axes_kept):
        drop = tuple(a for a in range(3) if a not in axes_kept)
        return _entropy_bits(t.sum(axis=drop).ravel())

    value = h((0, 2)) + h((1, 2)) - h((0, 1, 2)) - h((2,))
    return max(value, 0.0) if value > -1e-9 else value


def np_privacy_score(sensitivities, visibilities):
    return float(np.dot(sensitivities, visibilities))


def np_pearson(x, y):
    xa = np.ldexp(np.asarray(x, dtype=float), -_exponent(x))
    ya = np.ldexp(np.asarray(y, dtype=float), -_exponent(y))
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float((dx * dx).sum())
    sy = float((dy * dy).sum())
    return float((dx * dy).sum() / math.sqrt(sx * sy))


def np_ct_isolation(points, guess, target_index, c):
    pts = np.asarray(points, dtype=float)
    g = np.asarray(guess, dtype=float)
    delta = float(np.linalg.norm(g - pts[target_index]))
    dists = np.linalg.norm(pts - g, axis=1)
    radius = c * delta * (1.0 + 2.0**-50)  # the library's radius, a few ulps wide of c * delta
    return {"ball_count": int((dists <= radius).sum()), "delta": delta}


def np_r_squared(protected):
    y = np.ldexp(np.asarray(protected, dtype=float), -_exponent(protected))  # see the module docstring
    x = np.arange(len(y), dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = intercept + slope * x
    ss_e = float(((y - fitted) ** 2).sum())
    ss_r = float(((fitted - y.mean()) ** 2).sum())
    return 1.0 - ss_e / (ss_r + ss_e)


def np_normalized_variance(x, y):
    e = _exponent([*x, *y])
    xa = np.ldexp(np.asarray(x, dtype=float), -e)
    ya = np.ldexp(np.asarray(y, dtype=float), -e)
    return float(np.var(xa - ya) / np.var(xa))


def np_bayes_entropy_series(prior, transition, likelihoods):
    belief = np.asarray(prior, dtype=float)
    transition = np.asarray(transition, dtype=float)
    out = []
    for step, like in enumerate(likelihoods):
        posterior = (transition.T @ belief) * np.asarray(like, dtype=float)
        total = posterior.sum()
        if total <= 0:
            raise DomainError(f"posterior vanished at step {step}")
        belief = posterior / total
        out.append(_entropy_bits(belief))
    return out


# ---------------------------------------------------------------------------
# Draws

_SCALES = st.sampled_from([1.0, 0.001, 1e300, 1e-300, 2.0**1000, 2.0**-1000])
_INTS = st.integers(-1000, 1000)


def _series(draw, n, scale=None):
    scale = draw(_SCALES) if scale is None else scale
    return [v * scale for v in draw(st.lists(_INTS, min_size=n, max_size=n))]


def _masses(draw, n):
    """n probabilities that sum to 1, some of them 0."""
    weights = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n).filter(any))
    return [w / sum(weights) for w in weights]


def _points(draw, n, dim):
    return [tuple(draw(st.lists(st.integers(-100, 100), min_size=dim, max_size=dim))) for _ in range(n)]


# ---------------------------------------------------------------------------
# The comparisons


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pearson_abs(data):
    n = data.draw(st.integers(2, 30))
    x, y = _series(data.draw, n), _series(data.draw, n)
    if min(x) == max(x) or min(y) == max(y):
        with pytest.raises(DegenerateError):
            infogain.pearson_abs(x, y)
        return
    r = infogain.pearson_abs(x, y)
    assert close(r["raw"], np_pearson(x, y), ABS)
    assert r["abs"] == abs(r["raw"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normalized_variance(data):
    n, scale = data.draw(st.integers(2, 30)), data.draw(_SCALES)
    x, y = _series(data.draw, n, scale), _series(data.draw, n, scale)
    if min(x) == max(x):
        with pytest.raises(DegenerateError):
            tabular.normalized_variance(x, y)
        return
    assert close(tabular.normalized_variance(x, y), np_normalized_variance(x, y))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_r_squared_transitions(data):
    y = _series(data.draw, data.draw(st.integers(3, 30)))
    if min(y) == max(y):
        with pytest.raises(DegenerateError):
            tabular.r_squared_transitions(y)
        return
    assert close(tabular.r_squared_transitions(y), np_r_squared(y), ABS)


@pytest.mark.parametrize("k", [-1070, -1000, -1, 1, 1000])
def test_scaling_by_a_power_of_two_changes_nothing(k):
    """The three series metrics scale by the largest magnitude first, so a power of two drops out."""
    x, y = [3.0, -1.0, 4.0, 1.0, -5.0], [2.0, 7.0, 1.0, -8.0, 2.0]
    if k < -1000:  # subnormal: keep every entry exact
        x, y = [v * 2.0**-10 for v in x], [v * 2.0**-10 for v in y]
        k += 10
    sx, sy = [math.ldexp(v, k) for v in x], [math.ldexp(v, k) for v in y]
    assert infogain.pearson_abs(sx, sy) == infogain.pearson_abs(x, y)
    assert tabular.normalized_variance(sx, sy) == tabular.normalized_variance(x, y)
    assert tabular.r_squared_transitions(sy) == tabular.r_squared_transitions(y)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_conditional_mutual_information(data):
    nx, ny, nz = (data.draw(st.integers(1, 4)) for _ in range(3))
    cells = _masses(data.draw, nx * ny * nz)
    tensor = [[cells[(x * ny + y) * nz : (x * ny + y + 1) * nz] for y in range(ny)] for x in range(nx)]
    new = infogain.conditional_mutual_information(tensor)
    assert close(new, np_conditional_mutual_information(tensor), ABS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_privacy_score(data):
    n = data.draw(st.integers(1, 30))
    values = st.lists(st.floats(0, 1e150), min_size=n, max_size=n)
    s, v = data.draw(values), data.draw(values)
    assert close(infogain.privacy_score(s, v), np_privacy_score(s, v))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ct_isolation(data):
    n, dim = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 3))
    points, (guess,) = _points(data.draw, n, dim), _points(data.draw, 1, dim)
    target, c = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    new, old = tabular.ct_isolation(points, guess, target, c), np_ct_isolation(points, guess, target, c)
    assert new["ball_count"] == old["ball_count"]
    assert close(new["delta"], old["delta"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mean_squared_error(data):
    n, dim = data.draw(st.integers(1, 20)), data.draw(st.integers(0, 3))
    if dim == 0:  # plain numbers
        truths, observations = _series(data.draw, n, 1e100), _series(data.draw, n, 1e100)
    else:
        truths, observations = _points(data.draw, n, dim), _points(data.draw, n, dim)
    new = adversary.mean_squared_error(truths, observations)
    assert close(new, np_mean_squared_error(truths, observations))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_expected_estimation_error(data):
    n, dim = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 3))
    labels = tuple(f"c{i}" for i in range(n))
    coords = dict(zip(labels, _points(data.draw, n, dim)))
    posterior = DiscreteDistribution(labels, tuple(_masses(data.draw, n)))
    e = adversary.EstimateWithTruth(posterior, data.draw(st.sampled_from(labels)), "euclidean", coords)
    assert close(adversary.expected_estimation_error(e), np_expected_estimation_error(e))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_event_unobservability(data):
    samples = st.lists(_INTS, min_size=1, max_size=20)
    f1, f2 = data.draw(samples), data.draw(samples)
    d_area = adversary.event_unobservability(f1, f2, 1.0, 1.0, 0.1, 0.1)["d_area"]
    width = max(f1 + f2) - min(f1 + f2)
    assert close(d_area, np_d_area(f1, f2), ABS * width)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bayes_entropy_series(data):
    n, steps = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    states = tuple(f"s{i}" for i in range(n))
    # each mass vector sums to 1 within a few ulps, so the library keeps it unchanged
    prior = _masses(data.draw, n)
    transition = [_masses(data.draw, n) for _ in range(n)]
    likelihoods = [_masses(data.draw, n) for _ in range(steps)]
    try:
        old = np_bayes_entropy_series(prior, transition, likelihoods)
    except DomainError:
        with pytest.raises(DomainError):
            uncertainty.bayes_entropy_series(states, prior, transition, likelihoods)
        return
    new = uncertainty.bayes_entropy_series(states, prior, transition, likelihoods)["series"]
    assert len(new) == len(old)
    assert all(close(a, b, ABS) for a, b in zip(new, old))
