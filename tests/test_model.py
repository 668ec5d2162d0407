"""Configuration, estimation variance, and large-scale profile tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrelay import (
    DropGeometry,
    LargeScaleProfile,
    SystemConfig,
    draw_urban_profile,
    make_profile,
    snapshot_profile,
)
from fdrelay.model import estimation_variance


def test_config_defaults_and_prelog():
    cfg = SystemConfig(K=10, Nrx=100, Ntx=100)
    assert cfg.T == 200 and cfg.tau == 20
    assert (cfg.T - cfg.tau) / cfg.T == pytest.approx(0.9)


@pytest.mark.parametrize(
    "kw",
    [
        dict(K=0, Nrx=10, Ntx=10),
        dict(K=2, Nrx=0, Ntx=10),
        dict(K=2, Nrx=10, Ntx=10, tau=3),      # tau < 2K
        dict(K=2, Nrx=10, Ntx=10, T=20, tau=20),  # tau == T
        dict(K=2, Nrx=10, Ntx=10, Ps=-1.0),
        dict(K=2, Nrx=10, Ntx=10, sigma_li_sq=-0.5),
        # a non-finite power would reach the rates as a NaN sum SE
        dict(K=2, Nrx=10, Ntx=10, Ps=np.nan),
        dict(K=2, Nrx=10, Ntx=10, Pr=np.inf),
        dict(K=2, Nrx=10, Ntx=10, sigma_li_sq=np.nan),
        dict(K=2, Nrx=10, Ntx=10, Pp=np.inf),
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        SystemConfig(**kw)


def test_estimation_variance_hand_values():
    assert estimation_variance(0.0, 20, 10.0) == 0.0
    assert estimation_variance(1.0, 1, 1.0) == pytest.approx(0.5)
    assert estimation_variance(1.0, 20, 10.0) == pytest.approx(200.0 / 201.0)
    # first entry of the frozen ten-pair snapshot profile
    assert estimation_variance(0.749, 20, 10.0) == pytest.approx(
        20 * 10 * 0.749**2 / (20 * 10 * 0.749 + 1), rel=1e-12)


def test_estimation_variance_limit_and_bound():
    beta = np.array([0.3, 1.0, 4.2])
    var = estimation_variance(beta, 10_000, 10_000.0)
    assert np.all(var / beta > 1 - 1e-6)
    assert np.all(var < beta)


@given(
    beta=st.floats(min_value=1e-6, max_value=1e4),
    tau=st.integers(min_value=1, max_value=500),
    pp=st.floats(min_value=1e-6, max_value=1e4),
)
@settings(max_examples=200, deadline=None)
def test_estimation_variance_below_beta_and_monotone(beta, tau, pp):
    var = estimation_variance(beta, tau, pp)
    assert 0 < var < beta
    # strictly increasing in beta and nondecreasing in pilot energy
    assert estimation_variance(beta * 1.5, tau, pp) > var
    assert estimation_variance(beta, tau, pp * 2.0) >= var


def test_estimation_variance_rejects_negatives():
    with pytest.raises(ValueError):
        estimation_variance(-1.0, 20, 10.0)
    with pytest.raises(ValueError):
        estimation_variance(1.0, 0, 10.0)
    with pytest.raises(ValueError):
        estimation_variance(1.0, 20, -1.0)


def test_make_profile_consistency():
    prof = make_profile([2.0], [3.0], 20, 10.0)
    assert prof.K == 1
    assert prof.sigma_sr_sq[0] == pytest.approx(estimation_variance(2.0, 20, 10.0))
    assert prof.sigma_rd_sq[0] == pytest.approx(estimation_variance(3.0, 20, 10.0))
    flat = make_profile(np.ones(4), np.ones(4), 20, 10.0)
    np.testing.assert_allclose(flat.sigma_sr_sq, 200.0 / 201.0)


def test_make_profile_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_profile([1.0, 2.0], [1.0], 20, 10.0)
    with pytest.raises(ValueError):
        make_profile([1.0, 0.0], [1.0, 1.0], 20, 10.0)
    with pytest.raises(ValueError):
        make_profile([], [], 20, 10.0)
    # estimation_variance refuses a NaN gain before the profile sees it
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        make_profile([np.nan, 1.0], [1.0, 1.0], 4, 10.0)
    with pytest.raises(ValueError, match="1-D of one length K >= 1"):
        make_profile(np.ones((2, 2)), np.ones((2, 2)), 4, 10.0)


def test_profile_arrays_are_read_only():
    prof = make_profile([1.0], [1.0], 20, 10.0)
    with pytest.raises(ValueError):
        prof.beta_sr[0] = 2.0


def test_profile_direct_constructor_checks_shapes():
    with pytest.raises(ValueError):
        LargeScaleProfile(
            beta_sr=np.ones(3), beta_rd=np.ones(2),
            sigma_sr_sq=np.full(3, 0.5), sigma_rd_sq=np.full(3, 0.5))
    # the rules live in the profile, so direct construction meets them too:
    # a (2, 2) profile would give rate_mr a 2 x 2 "per-pair" array
    square, empty, ones = np.full((2, 2), 0.5), np.zeros(0), np.ones(2)
    with pytest.raises(ValueError, match="1-D of one length K >= 1"):
        LargeScaleProfile(beta_sr=2 * square, beta_rd=2 * square,
                          sigma_sr_sq=square, sigma_rd_sq=square)
    with pytest.raises(ValueError, match="1-D of one length K >= 1"):
        LargeScaleProfile(beta_sr=empty, beta_rd=empty, sigma_sr_sq=empty, sigma_rd_sq=empty)
    with pytest.raises(ValueError, match="gains must be positive and finite"):
        LargeScaleProfile(beta_sr=ones, beta_rd=np.array([1.0, np.inf]),
                          sigma_sr_sq=ones, sigma_rd_sq=ones)
    with pytest.raises(ValueError, match="sigma_sr_sq must be positive"):
        LargeScaleProfile(beta_sr=ones, beta_rd=ones,
                          sigma_sr_sq=np.array([0.5, np.nan]), sigma_rd_sq=ones)


def test_zero_pilot_energy_leaves_no_estimate():
    # tau*Pp = 0 gives sigma^2 = 0 on both hops; every profile refuses it
    with pytest.raises(ValueError, match="sigma_sr_sq must be positive.*tau\\*Pp = 0"):
        make_profile([1.0, 0.5], [1.0, 2.0], 6, 0.0)
    with pytest.raises(ValueError, match="sigma_rd_sq must be positive"):
        LargeScaleProfile(beta_sr=np.ones(2), beta_rd=np.ones(2),
                          sigma_sr_sq=np.full(2, 0.5), sigma_rd_sq=np.array([0.5, 0.0]))
    # perfect CSI (sigma^2 = beta) is a valid profile
    prof = LargeScaleProfile(beta_sr=np.ones(2), beta_rd=np.ones(2),
                             sigma_sr_sq=np.ones(2), sigma_rd_sq=np.ones(2))
    assert prof.K == 2


def test_profile_refuses_a_variance_above_its_gain():
    ones = np.ones(3)
    with pytest.raises(ValueError, match="sigma_sr_sq must not exceed beta_sr"):
        LargeScaleProfile(beta_sr=ones, beta_rd=ones,
                          sigma_sr_sq=np.array([0.5, 2.0, 0.5]), sigma_rd_sq=np.full(3, 0.5))
    with pytest.raises(ValueError, match="sigma_rd_sq must not exceed beta_rd"):
        LargeScaleProfile(beta_sr=ones, beta_rd=ones,
                          sigma_sr_sq=np.full(3, 0.5), sigma_rd_sq=np.array([0.5, 0.5, 1.5]))
    # perfect CSI (sigma^2 = beta) stays valid
    assert LargeScaleProfile(beta_sr=ones, beta_rd=2 * ones,
                             sigma_sr_sq=ones, sigma_rd_sq=2 * ones).K == 3


def test_huge_pilot_energy_gives_at_most_the_gain():
    # at tau*Pp = 1e16 the unclamped quotient rounds one ulp above beta = 3.7
    beta_sr, beta_rd = [0.5, 3.7, 1.0, 123.0], [1.5, 0.9, 3.7, 0.031]
    prof = make_profile(beta_sr, beta_rd, 20, 5e14)
    for beta, sigma_sq in ((prof.beta_sr, prof.sigma_sr_sq), (prof.beta_rd, prof.sigma_rd_sq)):
        assert np.all(sigma_sq <= beta)
        np.testing.assert_allclose(sigma_sq, beta, rtol=1e-14)
    assert prof.sigma_sr_sq[1] == 3.7 and prof.sigma_rd_sq[2] == 3.7
    assert estimation_variance(3.7, 20, 5e14) == 3.7


def test_snapshot_profile_values():
    prof = snapshot_profile(20, 10.0)
    assert prof.K == 10
    assert prof.beta_sr[0] == pytest.approx(0.749)
    assert prof.beta_rd[9] == pytest.approx(1.641)
    np.testing.assert_allclose(
        prof.sigma_sr_sq, estimation_variance(prof.beta_sr, 20, 10.0))


def test_urban_profile_shapes_and_determinism():
    geo = DropGeometry()
    a = draw_urban_profile(geo, 10, 20, 10.0, np.random.default_rng(7))
    b = draw_urban_profile(geo, 10, 20, 10.0, np.random.default_rng(7))
    assert a.K == 10
    np.testing.assert_array_equal(a.beta_sr, b.beta_sr)
    np.testing.assert_array_equal(a.beta_rd, b.beta_rd)
    assert np.all(a.beta_sr > 0) and np.all(a.sigma_sr_sq < a.beta_sr)


def test_urban_profile_no_shadowing_reference_distance():
    # with zero shadowing every gain is 1/(1+(l/l0)^nu) <= 1, and a tiny
    # disk pins l ~ 0 so beta ~ 1
    geo = DropGeometry(disk_diameter=1e-9, shadow_sigma_db=0.0)
    prof = draw_urban_profile(geo, 4, 20, 10.0, np.random.default_rng(0))
    np.testing.assert_allclose(prof.beta_sr, 1.0, rtol=1e-6)
    np.testing.assert_allclose(prof.beta_rd, 1.0, rtol=1e-6)


def test_urban_shadowing_median_near_one():
    geo = DropGeometry(disk_diameter=1e-9, shadow_sigma_db=8.0)
    rng = np.random.default_rng(11)
    prof = draw_urban_profile(geo, 100_000, 20, 10.0, rng)
    # beta == z here, and the log-normal z has median 1
    assert abs(np.median(prof.beta_sr) - 1.0) < 0.02


PROFILE_FIELDS = ("beta_sr", "beta_rd", "sigma_sr_sq", "sigma_rd_sq")


@pytest.mark.parametrize("drops", [1, 3, 60])
@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("shadow_sigma_db", [0.0, 8.0])
def test_a_stack_of_drops_equals_one_call_per_generator(drops, k, shadow_sigma_db):
    geo = DropGeometry(shadow_sigma_db=shadow_sigma_db)
    seeds = [np.random.SeedSequence((5, drop)) for drop in range(drops)]
    stack = draw_urban_profile(geo, k, 20, 10.0, [np.random.default_rng(s) for s in seeds])
    assert isinstance(stack, list) and len(stack) == drops
    for prof, seed in zip(stack, seeds):
        alone = draw_urban_profile(geo, k, 20, 10.0, np.random.default_rng(seed))
        for name in PROFILE_FIELDS:
            np.testing.assert_array_equal(getattr(prof, name), getattr(alone, name))


def test_one_generator_draws_one_drop_in_the_model_order():
    # K uniforms then K normals for the source side, then the same for the
    # destination side, each gain formed as the docstring's formula
    geo, rng = DropGeometry(), np.random.default_rng(3)
    prof = draw_urban_profile(geo, 6, 20, 10.0, np.random.default_rng(3))
    assert isinstance(prof, LargeScaleProfile)
    for gain in (prof.beta_sr, prof.beta_rd):
        dist = geo.disk_diameter / 2.0 * np.sqrt(rng.uniform(size=6))
        shadow = 10.0 ** (geo.shadow_sigma_db * rng.standard_normal(6) / 10.0)
        np.testing.assert_array_equal(
            gain, shadow / (1.0 + (dist / geo.ref_distance) ** geo.path_exponent))
    np.testing.assert_array_equal(prof.sigma_rd_sq, estimation_variance(prof.beta_rd, 20, 10.0))
    [again] = draw_urban_profile(geo, 6, 20, 10.0, (np.random.default_rng(3),))
    np.testing.assert_array_equal(again.beta_rd, prof.beta_rd)


def test_an_empty_stack_of_drops_is_refused_by_name():
    with pytest.raises(ValueError, match="rng must be a Generator or a non-empty sequence"):
        draw_urban_profile(DropGeometry(), 4, 20, 10.0, [])


GAINS_REFUSED = "large-scale gains must be positive and finite"
BETA_REFUSED = "beta must be finite and >= 0"


@pytest.mark.parametrize("geo,seeds,message", [
    # an overflowing path loss zeroes the gains of far nodes
    (DropGeometry(path_exponent=1e300), (0, 1, 2), GAINS_REFUSED),
    # at K = 1, a shadowing of 1e300 dB makes each gain 0 or inf: seed 2's
    # drop has no inf gain and so reaches the profile's check, seed 4's does
    (DropGeometry(shadow_sigma_db=1e300), (2, 4), GAINS_REFUSED),
    (DropGeometry(shadow_sigma_db=1e300), (4, 2), BETA_REFUSED),
])
def test_a_stack_of_drops_raises_what_its_first_bad_drop_raises(geo, seeds, message):
    k = 1 if geo.shadow_sigma_db > 8.0 else 10
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=message):
            draw_urban_profile(geo, k, 20, 10.0, np.random.default_rng(seeds[0]))
        with pytest.raises(ValueError, match=message):
            draw_urban_profile(geo, k, 20, 10.0, [np.random.default_rng(s) for s in seeds])


# each profile violates its rule and every rule after it, so the first
# message in the constructor's order is the one raised
ONES, HALF = np.ones(2), np.full(2, 0.5)
PROFILE_REFUSALS = [
    ("profile vectors must be 1-D of one length K >= 1",
     (np.ones(3), np.array([np.nan, 1.0]), np.zeros(2), 2 * ONES)),
    ("profile vectors must be 1-D of one length K >= 1",
     (np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))),
    ("large-scale gains must be positive and finite",
     (ONES, np.array([1.0, np.nan]), np.zeros(2), 2 * ONES)),
    ("sigma_sr_sq must be positive", (ONES, ONES, np.array([0.0, 2.0]), np.zeros(2))),
    ("sigma_sr_sq must not exceed beta_sr", (ONES, ONES, np.array([0.5, 2.0]), np.zeros(2))),
    ("sigma_rd_sq must be positive", (ONES, ONES, HALF, np.array([0.0, 2.0]))),
    ("sigma_rd_sq must not exceed beta_rd", (ONES, ONES, HALF, np.array([2.0, 0.5]))),
]


@pytest.mark.parametrize("message,vectors", PROFILE_REFUSALS)
def test_profile_refusals_come_in_their_order(message, vectors):
    with pytest.raises(ValueError) as caught:
        LargeScaleProfile(*vectors)
    assert str(caught.value).startswith(message)


def test_profile_vectors_are_read_only_copies():
    vectors = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([0.5, 1.5]),
               np.array([2.5, 3.5])]
    prof = LargeScaleProfile(*vectors)
    for vector in vectors:
        vector[:] = 0.25
    for name, want in zip(PROFILE_FIELDS, ([1.0, 2.0], [3.0, 4.0], [0.5, 1.5], [2.5, 3.5])):
        stored = getattr(prof, name)
        assert not stored.flags.writeable and stored.shape == (2,)
        np.testing.assert_array_equal(stored, want)
        with pytest.raises(ValueError):
            stored[0] = 9.0


def test_geometry_validation():
    with pytest.raises(ValueError):
        DropGeometry(disk_diameter=-1.0)
    with pytest.raises(ValueError):
        DropGeometry(shadow_sigma_db=-0.1)
