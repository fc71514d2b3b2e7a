"""Conformance of each random draw of the shot-noise generator to the model.

Each run draws the reference classes over 30 days, for both shot shapes,
plain and under day/night.  Per class it tests:

* the request times, by the probability integral transform: a shot
  request at time t of a content born at b maps to G(t) / G(H), where G
  is the content's cumulative request rate from b (F(t - b) without
  modulation); a stationary content is a uniform shot over [0, H] born
  at 0, so plain runs map it to t / H.  The transforms are U(0, 1), which
  a Kolmogorov-Smirnov test checks;
* the content count against Poisson(rate * H), and the births of a shot
  class against U(0, H) (a stationary content's birth is 0);
* the request count against its Poisson mean given the births,
  sum V * F(H - b) (under day/night, sum V * G(H): the candidates'
  2 * V * F(H - b) times the kept share, the integral of shape * f / 2
  over F(H - b)), as a z-score.

The times and owners come from ``generators._draw_run``, which also
returns each content's birth, so the tests do not depend on how the
generator keys its streams.  F, G and the shape scale L are the test's
own, from the model's definitions.  The seeds and the family-wise level
were fixed before the first run; the level is split over every test of
every run (Bonferroni).
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from snmcache import generators
from snmcache.generators import SnmConfig

from helpers import reference_classes

HORIZON = 30.0
FAMILY_LEVEL = 0.01
RUNS = {("exponential", False): 11, ("exponential", True): 12, ("uniform", False): 13, ("uniform", True): 14}
N_CLASSES = len(reference_classes())
N_SHOT_CLASSES = sum(c.shape_kind != "stationary" for c in reference_classes())
# per run: a time test, a count test and a request-sum test per class, a birth test per shot class
LEVEL = FAMILY_LEVEL / (len(RUNS) * (3 * N_CLASSES + N_SHOT_CLASSES))
OMEGA = 2 * math.pi  # f(t) = 1 + sin(OMEGA t), t in days


def scale(kind, lifespan):
    # L such that the 0.1-to-0.9 quantile span of the shape is the life-span:
    # uniform on [0, 2L] spans 0.8 * 2L; the exponential of mean L spans L (ln 10 - ln(10/9))
    return lifespan / 1.6 if kind == "uniform" else lifespan / (math.log(10.0) - math.log(10.0 / 9.0))


def rate_integral(kind, L, b, x, daynight):
    """G(x): the integral over [0, x] of the shape density g(y), times f(b + y) under day/night."""
    x = np.asarray(x, dtype=float)
    if kind == "uniform":  # g = 1 / (2L) on [0, 2L]
        x = np.minimum(x, 2 * L)
        mod = (np.cos(OMEGA * b) - np.cos(OMEGA * (b + x))) / OMEGA if daynight else 0.0
        return (x + mod) / (2 * L)
    plain = -np.expm1(-x / L)  # g = exp(-y / L) / L
    if not daynight:
        return plain
    z = 1j * OMEGA - 1.0 / L
    return plain + (np.exp(1j * OMEGA * b) * np.expm1(z * x) / (z * L)).imag


def run_pvalues(kind, daynight, seed):
    """{test name: p-value} for one run, one time, count and request-sum test per class
    and one birth test per shot class."""
    classes = reference_classes(horizon=HORIZON, shape=kind)
    t, owner, births, names = generators._draw_run(SnmConfig(HORIZON, classes, seed, daynight))
    content_class = np.array([int(name[1:].partition("_")[0]) for name in names])
    pvalues = {}
    for cfg in classes:
        members = np.flatnonzero(content_class == cfg.class_id)
        requests = np.isin(owner, members)
        where = f"class {cfg.class_id}"
        n, mean = members.size, cfg.arrival_rate * HORIZON
        pvalues[f"{where} content count {n}"] = min(1.0, 2 * min(stats.poisson.cdf(n, mean),
                                                                 stats.poisson.sf(n - 1, mean)))
        if cfg.shape_kind == "stationary":  # a uniform shot over the horizon, born at 0
            shape_kind, L, b, b_req = "uniform", HORIZON / 2, np.zeros(n), np.zeros(requests.sum())
        else:
            shape_kind, L = cfg.shape_kind, scale(cfg.shape_kind, cfg.lifespan)
            b, b_req = births[members], births[owner[requests]]
            pvalues[f"{where} births"] = stats.kstest(b / HORIZON, "uniform").pvalue
        u = rate_integral(shape_kind, L, b_req, t[requests] - b_req, daynight)
        u /= rate_integral(shape_kind, L, b_req, HORIZON - b_req, daynight)
        pvalues[f"{where} request times"] = stats.kstest(u, "uniform").pvalue
        mean = cfg.volumes * rate_integral(shape_kind, L, b, HORIZON - b, daynight).sum()
        z = (requests.sum() - mean) / math.sqrt(mean)
        pvalues[f"{where} request count z={z:.2f}"] = 2 * stats.norm.sf(abs(z))
    return pvalues


@pytest.mark.parametrize("kind,daynight", list(RUNS))
def test_each_draw_follows_the_model(kind, daynight):
    pvalues = run_pvalues(kind, daynight, RUNS[kind, daynight])
    assert len(pvalues) == 3 * N_CLASSES + N_SHOT_CLASSES
    assert {name: p for name, p in pvalues.items() if p <= LEVEL} == {}


@pytest.mark.parametrize("kind", ["exponential", "uniform"])
@pytest.mark.parametrize("daynight", [False, True])
def test_rate_integral_is_the_quadrature(kind, daynight):
    # the closed forms above against numerical integration of g(y) * f(b + y)
    L = 1.7
    density = (lambda y: np.exp(-y / L) / L) if kind == "exponential" else (lambda y: (y <= 2 * L) / (2 * L))
    for b in (0.0, 0.3, 7.81):
        for x in (0.05, 1.0, 2.9, 4.0, 25.0):
            f = (lambda y: 1 + math.sin(OMEGA * (b + y))) if daynight else (lambda y: 1.0)
            expected, _ = integrate.quad(lambda y: density(y) * f(y), 0.0, x, points=[2 * L], limit=200)
            assert rate_integral(kind, L, b, x, daynight) == pytest.approx(expected, rel=1e-7, abs=1e-12)


def test_scale_gives_the_life_span():
    # the 0.1-to-0.9 quantile span of each shape, solved from its own CDF at the test's L
    for kind in ("exponential", "uniform"):
        L = scale(kind, 4.0)
        lo, hi = (optimize.brentq(lambda x: rate_integral(kind, L, 0.0, x, False) - q, 0.0, 100.0) for q in (0.1, 0.9))
        assert hi - lo == pytest.approx(4.0)
