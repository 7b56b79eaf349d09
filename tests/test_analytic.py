"""Closed-form mixture denoiser: densities, responsibilities, eps-hat."""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import single_gaussian
from turnpoint.analytic import (
    SCORE_SLICE_BYTES,
    VARIANCE_FLOOR,
    AnalyticDenoiser,
    GaussianMixture,
    diffused_mixture,
    log_density,
    mixture_tables,
    predict_eps,
    responsibilities,
)
from turnpoint.conditioning import compose_single
from turnpoint.diffusion import build_schedule, step_coefficients
from turnpoint.worldgen import (
    condition_of,
    generate_suite,
    mixture_data_sampler,
    suite_training_pairs,
)


def two_bump(dist=3.0, var=0.5):
    return GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[-dist, 0.0], [dist, 0.0]]),
        np.full((2, 2), var),
    )


# ---------------------------------------------------------------------------
# GaussianMixture construction


def test_single_gaussian_broadcasts_scalar_variance():
    mix = single_gaussian([1.0, 2.0, 3.0], 0.25)
    assert mix.n_components == 1 and mix.dim == 3
    np.testing.assert_array_equal(mix.variances, np.full((1, 3), 0.25))


def test_weights_must_be_positive_and_normalized():
    means = np.zeros((2, 1))
    var = np.ones((2, 1))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.7, 0.2]), means, var)
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.5, -0.5]), means, var)


def test_shape_validation():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 2)))


def test_zero_variance_clamped_to_floor():
    mix = single_gaussian([0.0], 0.0)
    assert mix.variances[0, 0] == VARIANCE_FLOOR
    assert np.isfinite(log_density(np.array([0.0]), mix))


def test_arrays_frozen():
    mix = two_bump()
    with pytest.raises(ValueError):
        mix.means[0, 0] = 5.0


# ---------------------------------------------------------------------------
# densities and responsibilities


def test_log_density_matches_direct_formula():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        w = rng.uniform(0.1, 1.0, k)
        w /= w.sum()
        mix = GaussianMixture(w, rng.normal(0, 2, (k, d)), rng.uniform(0.2, 2.0, (k, d)))
        z = rng.normal(0, 2, d)
        direct = 0.0
        for j in range(k):
            comp = np.exp(
                -0.5 * np.sum((z - mix.means[j]) ** 2 / mix.variances[j])
            ) / np.sqrt(np.prod(2 * np.pi * mix.variances[j]))
            direct += w[j] * comp
        np.testing.assert_allclose(log_density(z, mix), np.log(direct), rtol=1e-10)


def test_log_density_stable_far_from_mass():
    mix = two_bump()
    val = log_density(np.array([1e4, 1e4]), mix)
    assert np.isfinite(val) and val < -1e6


def test_responsibilities_symmetric_midpoint():
    mix = two_bump()
    resp = responsibilities(np.array([0.0, 0.0]), mix)
    np.testing.assert_allclose(resp, [0.5, 0.5])


def test_responsibilities_sum_to_one_and_saturate():
    mix = two_bump(dist=5.0, var=0.1)
    rng = np.random.default_rng(8)
    for _ in range(100):
        z = rng.normal(0, 6, 2)
        resp = responsibilities(z, mix)
        assert resp.shape == (2,)
        np.testing.assert_allclose(resp.sum(), 1.0, atol=1e-12)
    near_right = responsibilities(np.array([5.0, 0.0]), mix)
    assert near_right[1] > 1.0 - 1e-10


# ---------------------------------------------------------------------------
# diffusion of the mixture


def test_diffused_mixture_closed_form():
    sched = build_schedule(30)
    mix = two_bump(var=0.5)
    t = 12
    out = diffused_mixture(mix, t, sched)
    a = sched.alpha_bar[t]
    np.testing.assert_allclose(out.means, np.sqrt(a) * mix.means)
    np.testing.assert_allclose(out.variances, a * 0.5 + (1 - a))
    np.testing.assert_array_equal(out.weights, mix.weights)


def test_diffused_mixture_limits_via_injected_schedule():
    mix = two_bump(var=0.5)

    def injected(alpha_bar):
        beta = np.array([0.5])
        with np.errstate(divide="ignore"):  # beta / sqrt(1 - 1.0), unused here
            coef = step_coefficients(beta, 1.0 - beta, np.array([alpha_bar]))
        return SimpleNamespace(n_steps=1, coef=coef)

    keep = injected(1.0)
    out = diffused_mixture(mix, 0, keep)
    np.testing.assert_array_equal(out.means, mix.means)
    np.testing.assert_array_equal(out.variances, mix.variances)
    destroy = injected(1e-300)
    out = diffused_mixture(mix, 0, destroy)
    np.testing.assert_allclose(out.means, 0.0, atol=1e-140)
    np.testing.assert_allclose(out.variances, 1.0)


def test_diffused_mixture_step_range():
    sched = build_schedule(5)
    with pytest.raises(ValueError):
        diffused_mixture(two_bump(), 5, sched)


@pytest.mark.parametrize("t", [2.5, np.float64(2.0), True, np.True_])
def test_steps_that_are_not_integers_are_refused(t):
    sched, mix = build_schedule(5), two_bump()
    with pytest.raises(ValueError, match="is not an integer"):
        diffused_mixture(mix, t, sched)
    with pytest.raises(ValueError, match="is not an integer"):
        predict_eps(np.zeros(mix.dim), t, mix, sched)
    tables = mixture_tables([mix])
    with pytest.raises(ValueError, match="is not an integer"):
        predict_eps(np.zeros((1, mix.dim)), t, tables, sched, [0])


def test_numpy_integer_steps_equal_python_ints():
    sched, mix = build_schedule(5), two_bump()
    z = np.random.default_rng(8).standard_normal((4, mix.dim))
    tables, slots = mixture_tables([mix, two_bump(dist=1.0)]), [0, 1, 1, 0]
    for t in (0, 3):
        got, want = diffused_mixture(mix, np.int64(t), sched), diffused_mixture(mix, t, sched)
        assert got.means.tobytes() == want.means.tobytes()
        assert got.variances.tobytes() == want.variances.tobytes()
        assert (predict_eps(z, np.int64(t), mix, sched).tobytes()
                == predict_eps(z, t, mix, sched).tobytes())
        assert (predict_eps(z, np.int64(t), tables, sched, slots).tobytes()
                == predict_eps(z, t, tables, sched, slots).tobytes())


# ---------------------------------------------------------------------------
# predict_eps


def test_predict_eps_single_gaussian_closed_form():
    # for one Gaussian the score is linear, so eps-hat has an explicit form
    sched = build_schedule(40)
    mean = np.array([1.0, -2.0, 0.5])
    var = 0.7
    mix = single_gaussian(mean, var)
    rng = np.random.default_rng(5)
    for t in (0, 17, 39):
        a = sched.alpha_bar[t]
        vt = a * var + (1 - a)
        for _ in range(20):
            z = rng.normal(0, 2, 3)
            want = np.sqrt(1 - a) * (z - np.sqrt(a) * mean) / vt
            np.testing.assert_allclose(predict_eps(z, t, mix, sched), want, rtol=1e-12)


def test_predict_eps_matches_numerical_score():
    sched = build_schedule(50)
    rng = np.random.default_rng(17)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        w = rng.uniform(0.2, 1.0, k)
        w /= w.sum()
        mix = GaussianMixture(w, rng.normal(0, 2, (k, d)), rng.uniform(0.3, 2.0, (k, d)))
        t = int(rng.integers(0, 50))
        z = rng.normal(0, 2, d)
        mix_t = diffused_mixture(mix, t, sched)
        h = 1e-5
        grad = np.empty(d)
        for j in range(d):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            grad[j] = (log_density(zp, mix_t) - log_density(zm, mix_t)) / (2 * h)
        want = -np.sqrt(1 - sched.alpha_bar[t]) * grad
        np.testing.assert_allclose(predict_eps(z, t, mix, sched), want, rtol=1e-6, atol=1e-8)


def test_predict_eps_batch_matches_rowwise():
    sched = build_schedule(20)
    mix = two_bump()
    rng = np.random.default_rng(23)
    z = rng.normal(0, 2, (7, 2))
    batch = predict_eps(z, 9, mix, sched)
    assert batch.shape == (7, 2)
    for i in range(7):
        np.testing.assert_array_equal(batch[i], predict_eps(z[i], 9, mix, sched))


def test_predict_eps_on_tables_equals_each_mixture_alone():
    # slots with fewer components are padded; each row must get, bit for
    # bit, what its own mixture gives
    sched = build_schedule(20)
    mixtures = [
        two_bump(),
        single_gaussian([0.5, -1.0], [0.2, 0.7]),
        GaussianMixture(
            np.array([0.2, 0.3, 0.5]),
            np.array([[1.0, 1.0], [-2.0, 0.5], [0.0, -3.0]]),
            np.array([[0.1, 0.2], [0.0, 1.0], [0.5, 0.5]]),
        ),
    ]
    tables = mixture_tables(mixtures)
    assert tables.means.shape == (3, 3, 2)
    assert tables.log_weights[1, 1:].tolist() == [-np.inf, -np.inf]
    assert (tables.means[1, 1:] == 0.0).all() and (tables.variances[1, 1:] == 1.0).all()
    rng = np.random.default_rng(24)
    slots = np.array([0, 2, 1, 1, 0, 2, 2])
    z = rng.normal(0, 2, (len(slots), 2))
    for t in (0, 9, 19):
        got = predict_eps(z, t, tables, sched, slots)
        for row, slot in enumerate(slots):
            want = predict_eps(z[row : row + 1], t, mixtures[slot], sched)
            assert got[row].tobytes() == want[0].tobytes()
    with pytest.raises(ValueError, match="slots"):
        predict_eps(z, 0, tables, sched, slots[:3])
    with pytest.raises(ValueError, match="outside"):
        predict_eps(z, 20, tables, sched, slots)


def _numpy_scalar_predict_eps(z, t, tables, sched, slots):
    # mixture-table scoring with its step coefficients computed as numpy
    # scalars at every call, one row slice at a time
    a_bar = sched.alpha_bar[t]
    variances = np.maximum(a_bar * tables.variances + (1.0 - a_bar), VARIANCE_FLOOR)
    means = np.sqrt(a_bar) * tables.means
    if tables.n_components == 1:
        eps = np.subtract(z, means[slots, 0])
        eps /= variances[slots, 0]
        np.subtract(0.0, eps, out=eps)
        eps *= -np.sqrt(1.0 - sched.alpha_bar[t])
        return eps
    out = np.empty_like(z)
    step = max(1, SCORE_SLICE_BYTES // (means[0].size * means.itemsize))
    for start in range(0, len(z), step):
        rows = slots[start : start + step]
        var = variances[rows]
        diff = z[start : start + step, None, :] - means[rows]
        terms = diff * diff
        terms /= var
        terms += np.log(var)
        terms += np.log(2.0 * np.pi)
        lw = tables.log_weights[rows] + -0.5 * np.sum(terms, axis=-1)
        lw = lw - lw.max(axis=-1, keepdims=True)
        w = np.exp(lw)
        resp = w / w.sum(axis=-1, keepdims=True)
        scores = np.negative(diff, out=diff)
        scores /= var
        scores *= resp[..., None]
        eps = np.sum(scores, axis=-2)
        eps *= -np.sqrt(1.0 - sched.alpha_bar[t])
        out[start : start + step] = eps
    return out


@pytest.mark.parametrize("beta_max", [0.02, 0.3])
@pytest.mark.parametrize("n_components", [1, 2])
def test_predict_eps_equals_numpy_scalar_coefficients(n_components, beta_max):
    sched = build_schedule(50, 1e-4, beta_max)
    rng = np.random.default_rng(n_components)
    mixtures = []
    for _ in range(5):
        w = rng.uniform(0.2, 1.0, n_components)
        mixtures.append(GaussianMixture(
            w / w.sum(), rng.normal(0, 2, (n_components, 96)),
            rng.uniform(0.0, 1.0, (n_components, 96)),
        ))
    tables = mixture_tables(mixtures)
    slots = rng.integers(0, len(mixtures), 400)
    z = rng.normal(0, 2, (len(slots), 96))
    for t in range(sched.n_steps):
        want = _numpy_scalar_predict_eps(z, t, tables, sched, slots)
        assert predict_eps(z, t, tables, sched, slots).tobytes() == want.tobytes()


def test_one_component_tables_equal_each_gaussian_alone():
    # K = 1 tables take the closed-form score; it must match the general
    # mixture path bit for bit, signed zeros included
    sched = build_schedule(30)
    rng = np.random.default_rng(40)
    gaussians = [
        single_gaussian(rng.normal(0, 1, 5), rng.uniform(0.0, 2.0, 5)) for _ in range(3)
    ]
    gaussians.append(single_gaussian(np.zeros(5), 0.0))  # variance at the floor
    tables = mixture_tables(gaussians)
    slots = rng.integers(0, len(gaussians), 40)
    z = rng.normal(0, 3, (len(slots), 5))
    z[0] = gaussians[slots[0]].means[0] * np.sqrt(sched.alpha_bar[29])  # diff of zero
    for t in (0, 11, 29):
        got = predict_eps(z, t, tables, sched, slots)
        for row, slot in enumerate(slots):
            want = predict_eps(z[row], t, gaussians[slot], sched)
            assert got[row].tobytes() == want.tobytes()
    assert predict_eps(z[:0], 0, tables, sched, slots[:0]).shape == (0, 5)


def test_one_component_tables_keep_the_overflow_failure():
    sched = build_schedule(10)
    tables = mixture_tables([single_gaussian([0.0, 1.0], 0.5)])
    z = np.array([[0.3, 0.2], [1e200, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            predict_eps(z, 5, single_gaussian([0.0, 1.0], 0.5), sched)
        with pytest.raises(FloatingPointError):
            predict_eps(z, 5, tables, sched, np.zeros(2, dtype=np.intp))
    with pytest.raises(FloatingPointError):
        predict_eps(z[:1] + np.nan, 5, tables, sched, np.zeros(1, dtype=np.intp))


def test_row_slices_change_no_bit(monkeypatch):
    import turnpoint.analytic as analytic

    sched = build_schedule(20)
    tables = mixture_tables([two_bump(), single_gaussian([0.5, -1.0], [0.2, 0.7])])
    rng = np.random.default_rng(41)
    slots = rng.integers(0, 2, 25)
    z = rng.normal(0, 2, (len(slots), 2))
    whole = predict_eps(z, 7, tables, sched, slots)
    monkeypatch.setattr(analytic, "SCORE_SLICE_BYTES", 3 * 2 * 2 * 8)  # 3 rows
    assert predict_eps(z, 7, tables, sched, slots).tobytes() == whole.tobytes()


def test_predict_eps_dimension_check():
    sched = build_schedule(5)
    with pytest.raises(ValueError):
        predict_eps(np.zeros(3), 0, two_bump(), sched)


# ---------------------------------------------------------------------------
# sampling


def sample_mixture(mixture, rng, n):
    """``n`` draws from ``mixture`` by the training sampler, of one pair."""
    z0, _ = mixture_data_sampler([(compose_single([0.0]), mixture)])(rng, n)
    return z0


def test_sample_mixture_moments():
    mix = two_bump(dist=2.0, var=0.3)
    rng = np.random.default_rng(29)
    pts = sample_mixture(mix, rng, 40_000)
    assert pts.shape == (40_000, 2)
    np.testing.assert_allclose(pts.mean(axis=0), [0.0, 0.0], atol=0.05)
    # second moment along x: within-component var + between-component spread
    np.testing.assert_allclose(pts[:, 0].var(), 0.3 + 4.0, rtol=0.05)
    np.testing.assert_allclose(pts[:, 1].var(), 0.3, rtol=0.05)


def test_sample_mixture_degenerate_lands_on_means():
    mix = GaussianMixture(
        np.array([0.5, 0.5]), np.array([[1.0], [5.0]]), np.zeros((2, 1))
    )
    rng = np.random.default_rng(31)
    pts = sample_mixture(mix, rng, 200)[:, 0]
    dist_to_nearest = np.minimum(np.abs(pts - 1.0), np.abs(pts - 5.0))
    assert dist_to_nearest.max() < 1e-5


def test_sample_mixture_count_validation():
    with pytest.raises(ValueError):
        sample_mixture(two_bump(), np.random.default_rng(0), -1)


# ---------------------------------------------------------------------------
# AnalyticDenoiser


def test_denoiser_registry_lookup_by_value():
    sched = build_schedule(10)
    backend = AnalyticDenoiser(sched, 2)
    cond = compose_single([1.0, 2.0])
    mix = two_bump()
    backend.register(cond, mix)
    # an equal-valued but distinct condition object still resolves
    assert backend.mixture_for(compose_single([1.0, 2.0])) is mix
    z = np.array([[0.3, -0.4], [1.5, 0.2]])
    prepared = backend.prepare([compose_single([1.0, 2.0])])
    np.testing.assert_array_equal(
        backend.predict_eps(z, 4, prepared, np.zeros(2, dtype=np.intp)),
        predict_eps(z, 4, mix, sched),
    )


def test_denoiser_unregistered_condition_is_an_error():
    backend = AnalyticDenoiser(build_schedule(5), 2)
    with pytest.raises(ValueError, match="no data distribution registered"):
        backend.mixture_for(compose_single([9.0, 9.0]))


def test_denoiser_refuses_a_second_mixture_for_a_condition():
    # both views of an EgoExo pair share their conditions, not their data
    records = generate_suite(0)
    first, third = (r for r in records if r.pair_id == "egoexo-000")
    assert (first.view, third.view) == ("first", "third")
    cond = condition_of(first, "event1")
    assert cond == condition_of(third, "event1")
    backend = AnalyticDenoiser(build_schedule(5), 8 * first.frame_dim)
    (_, mixture), *_ = suite_training_pairs([first], 8, 0.5)
    backend.register(cond, mixture)
    (_, again), *_ = suite_training_pairs([first], 8, 0.5)
    backend.register(cond, again)  # equal: fine
    (_, other), *_ = suite_training_pairs([third], 8, 0.5)
    with pytest.raises(ValueError, match="already registered"):
        backend.register(cond, other)
    assert backend.mixture_for(cond) is mixture


def test_denoiser_dimension_check_on_register():
    backend = AnalyticDenoiser(build_schedule(5), 6)
    assert backend.dim == 6
    with pytest.raises(ValueError):
        backend.register(compose_single([1.0]), two_bump())
