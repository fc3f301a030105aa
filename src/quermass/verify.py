"""Numerical verification of section/projection inequalities.

Each operation checks one identity or double-sided inequality relating a
body's quermassintegrals to those of its sections, projections, or random
inscribed hulls, and returns a CheckReport with statistically qualified
verdicts: pass/fail at three combined standard errors, with `inconclusive`
reserved for bounds whose right-hand side is a sampled maximum (finite flat
sampling cannot certify a violation of a max-based inequality).

Section quermassintegrals are always computed in the flat's intrinsic
dimension; conversions between ambient dimensions go through dim_convert.
Monte Carlo constants (expected hull volumes over the ball, flat-measure
calibration) and reference values are computed once per parameter tuple,
under a per-key lock so that concurrent checks share one computation, and
cached with their standard errors; downstream margins combine errors in
quadrature.
"""
from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from quermass import bodies as bd
from quermass import grassmann as gr
from quermass import integrals as it
from quermass import polytope as pt
from quermass.core import MeanAccumulator, RngStream, log_binom, log_omega, omega
from quermass.integrals import Estimate

logger = logging.getLogger(__name__)

SIGMA_THRESHOLD = 3.0
EXACT_RTOL = 1e-9

DEFAULT_FLATS = 10_000
DEFAULT_TUPLES = 100_000
DEFAULT_CONSTANT_SAMPLES = 100_000
DEFAULT_SUB_SAMPLES = 512
DEFAULT_REF_SAMPLES = 20_000


class CheckError(Exception):
    pass


class PreconditionError(CheckError):
    pass


# ---------------------------------------------------------------------------
# constants


def alpha_const(n: int, k: int, j: int) -> float:
    """omega_{n-k} omega_{n-j} / (omega_{n-k-j} omega_n)."""
    return math.exp(log_omega(n - k) + log_omega(n - j)
                    - log_omega(n - k - j) - log_omega(n))


def gamma_cor12_const(n: int, k: int, j: int) -> float:
    """omega_{n-k} omega_{n-j} / (omega_{n-k-j} omega_k)."""
    return math.exp(log_omega(n - k) + log_omega(n - j)
                    - log_omega(n - k - j) - log_omega(k))


def delta_const(n: int, k: int, j: int) -> float:
    """(omega_j / omega_{k+j}) C(n, k+j) / C(n-k, j)."""
    return math.exp(log_omega(j) - log_omega(k + j)
                    + log_binom(n, k + j) - log_binom(n - k, j))


def shrink_factor(n: int, k: int, j: int) -> float:
    """((n-k-j+1)/(n+1))^(n-k-j), the centered lower-bound attenuation."""
    return ((n - k - j + 1) / (n + 1)) ** (n - k - j)


def fradelizi_factor(n: int, k: int) -> float:
    """((n+1)/(n-k+1))^(n-k): max section vs central section, volumes."""
    return ((n + 1) / (n - k + 1)) ** (n - k)


def stephen_yaskin_factor(n: int, k: int, j: int) -> float:
    """((n+1)/(n-k-j+1))^(n-k-j): same comparison at quermass order j."""
    return ((n + 1) / (n - k - j + 1)) ** (n - k - j)


def beta_thm34_const(n: int, k: int, j: int) -> float:
    return alpha_const(n, k, j) * shrink_factor(n, k, j) / math.exp(log_binom(n, k))


def gamma_thm34_const(n: int, k: int, j: int) -> float:
    return (alpha_const(n, k, j) * math.exp(log_binom(n - j, k))
            * fradelizi_factor(n, k))


_MC_CONSTANT_CACHE: dict[tuple, Estimate] = {}
_KEY_LOCKS: dict[tuple, threading.Lock] = {}
_KEY_LOCKS_GUARD = threading.Lock()


def _compute_once(cache: dict, key: tuple, compute) -> Estimate:
    """cache[key], filled by compute() once even when threads ask together."""
    value = cache.get(key)
    if value is not None:
        return value
    with _KEY_LOCKS_GUARD:
        lock = _KEY_LOCKS.setdefault((id(cache), key), threading.Lock())
    with lock:
        value = cache.get(key)
        if value is None:
            value = compute()
            cache[key] = value
    return value


def _hull_volumes(x: np.ndarray, include_origin: bool) -> np.ndarray:
    """|conv({0}? union {x_1..x_q})| for each row of x, shape (count, q, d)."""
    count, q, d = x.shape
    if d == 1:
        hi = x[:, :, 0].max(axis=1)
        lo = x[:, :, 0].min(axis=1)
        if include_origin:
            hi = np.maximum(hi, 0.0)
            lo = np.minimum(lo, 0.0)
        return hi - lo
    if include_origin:
        x = np.concatenate([np.zeros((count, 1, d)), x], axis=1)
    if d == 2:
        return pt.polygon_areas(x)
    out = np.empty(count)
    for i in range(count):
        try:
            out[i] = pt.hull_volume(x[i], d)
        except pt.DegenerateHullError:
            out[i] = 0.0
    return out


def _random_hull_volumes(d: int, q: int, include_origin: bool, count: int,
                         gen: np.random.Generator, power: float = 1.0) -> np.ndarray:
    """|conv({0}? union {x_1..x_q})|^power for x_i uniform in the unit d-ball."""
    g = gen.standard_normal((count, q, d))
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    r = gen.uniform(size=(count, q, 1)) ** (1.0 / d)
    out = _hull_volumes(g * r, include_origin)
    if power != 1.0:
        out = out ** power
    return out


def dpp_constant(d: int, q: int, include_origin: bool, samples: int,
                 rng: RngStream) -> Estimate:
    """Expected hull volume of q uniform ball points (optionally with 0).

    This is the normalized first moment of |[x_1..x_q] C| with C the
    standard simplex on q vertices (with or without the origin as an extra
    vertex), evaluated at the uniform density on the unit d-ball.
    """
    if include_origin:
        if not 1 <= d <= q:
            raise PreconditionError("need 1 <= d <= q with the origin included")
    elif not 1 <= d <= q - 1:
        raise PreconditionError("need d <= q-1 without the origin")

    def compute() -> Estimate:
        acc = MeanAccumulator()
        done = 0
        batch_id = 0
        while done < samples:
            take = min(it.BATCH, samples - done)
            gen = rng.split(batch_id).generator()
            acc.add(_random_hull_volumes(d, q, include_origin, take, gen))
            done += take
            batch_id += 1
        return Estimate.from_accumulator(acc, rng.seed, "dpp-mc")

    key = ("dpp", d, q, include_origin, samples, rng.seed, rng.stream)
    return _compute_once(_MC_CONSTANT_CACHE, key, compute)


def c_const(n: int, k: int, j: int, samples: int, rng: RngStream) -> Estimate:
    """Lower-bound constant of the random-hull double bound:
    omega_j / (omega_{k+j} omega_{n-k-j} C(n-k, j)) times the expected
    volume of conv{0, x_1..x_{n-k}} for uniform points in the (n-k-j)-ball.
    """
    factor = math.exp(log_omega(j) - log_omega(k + j) - log_omega(n - k - j)
                      - log_binom(n - k, j))
    base = dpp_constant(n - k - j, n - k, True, samples,
                        rng.split_named(f"c-{n}-{k}-{j}"))
    return base.scaled(factor)


def cprime_const(n: int, k: int, j: int, samples: int, rng: RngStream) -> Estimate:
    """Centered variant: c multiplied by ((n+1)/(k+j+1))^-(k+j)."""
    return c_const(n, k, j, samples, rng).scaled(
        ((n + 1) / (k + j + 1)) ** (-(k + j)))


def c46_const(n: int, big_n: int, j: int, samples: int, rng: RngStream,
              centered: bool = False) -> Estimate:
    """Constant of the N-point random-hull lower bound:
    F(1_{B^{n-j}}; N) / (omega_{n-j} C(n, j)), times the centered
    attenuation ((n+1)/(j+1))^-j when requested.
    """
    factor = math.exp(-log_omega(n - j) - log_binom(n, j))
    if centered:
        factor *= ((n + 1) / (j + 1)) ** (-j)
    base = dpp_constant(n - j, big_n, False, samples,
                        rng.split_named(f"c46-{n}-{big_n}-{j}"))
    return base.scaled(factor)


def bp_calibrate(n: int, s: int, samples: int, rng: RngStream) -> Estimate:
    """Normalization p(n, s) of the flat decomposition of s-point integrals.

    Calibrated on the unit ball: p(n,s) = omega_n^s / (omega_s^s *
    E[|conv{0, X_1..X_s}|^{n-s}]) with X_i uniform in the unit s-ball.
    For s = 1 this closes to n omega_n / 2.
    """
    if not 1 <= s <= n - 1:
        raise PreconditionError("need 1 <= s <= n-1")

    def compute() -> Estimate:
        acc = MeanAccumulator()
        done = 0
        batch_id = 0
        while done < samples:
            take = min(it.BATCH, samples - done)
            gen = rng.split(batch_id).generator()
            acc.add(_random_hull_volumes(s, s, True, take, gen, power=float(n - s)))
            done += take
            batch_id += 1
        inner = Estimate.from_accumulator(acc, rng.seed, "bp-mc")
        scale = math.exp(s * log_omega(n) - s * log_omega(s))
        return inner.inverted().scaled(scale)

    key = ("bp", n, s, samples, rng.seed, rng.stream)
    return _compute_once(_MC_CONSTANT_CACHE, key, compute)


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    """Outcome of one verification: bounds, margins in combined-sigma units,
    the constants used, and a pass/fail/inconclusive verdict."""

    check_id: str
    body: str
    params: dict
    lower: Estimate | None
    middle: Estimate
    upper: Estimate | None
    constants: dict
    margin_lower: float
    margin_upper: float
    verdict: str
    note: str = ""
    seed: int = 0
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return self.verdict in ("pass", "inconclusive")


def _margin(diff: float, sigma: float, scale: float) -> float:
    if sigma > 0.0:
        return diff / sigma
    if diff >= -EXACT_RTOL * max(scale, 1e-300):
        return math.inf
    return -math.inf


def _combined_sigma(a: Estimate | None, b: Estimate | None) -> float:
    sa = a.std_error if a is not None else 0.0
    sb = b.std_error if b is not None else 0.0
    return math.hypot(sa, sb)


def _finish(check_id: str, body_name: str, params: dict,
            lower: Estimate | None, middle: Estimate, upper: Estimate | None,
            constants: dict, seed: int, started: float,
            inconclusive_on_lower_fail: bool = False, note: str = "",
            details: dict | None = None) -> CheckReport:
    scale = abs(middle.value) + (abs(lower.value) if lower else 0.0) \
        + (abs(upper.value) if upper else 0.0)
    m_lo = (_margin(middle.value - lower.value, _combined_sigma(middle, lower), scale)
            if lower is not None else math.inf)
    m_up = (_margin(upper.value - middle.value, _combined_sigma(middle, upper), scale)
            if upper is not None else math.inf)
    if m_lo >= -SIGMA_THRESHOLD and m_up >= -SIGMA_THRESHOLD:
        verdict = "pass"
    elif m_lo < -SIGMA_THRESHOLD and inconclusive_on_lower_fail:
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return CheckReport(
        check_id=check_id, body=body_name, params=params,
        lower=lower, middle=middle, upper=upper, constants=constants,
        margin_lower=m_lo, margin_upper=m_up, verdict=verdict, note=note,
        seed=seed, wall_time=time.perf_counter() - started,
        details=details or {},
    )


# ---------------------------------------------------------------------------
# shared estimation helpers

_REF_CACHE: dict[tuple, Estimate] = {}


def reference_quermass(body: bd.ConvexBody, j: int, rng: RngStream,
                       samples: int = DEFAULT_REF_SAMPLES) -> Estimate:
    """W_j(K) for use as the deterministic reference side of a check.

    Derived from a stream keyed by the body fingerprint, so every check in
    a run sees the identical reference value regardless of scheduling.
    """
    fp = bd.fingerprint(body)

    def compute() -> Estimate:
        stream = RngStream(rng.seed).split_named(f"ref-{fp}-{j}-{samples}")
        return it.quermass_estimate(body, j, samples, stream)

    return _compute_once(_REF_CACHE, (fp, j, samples, rng.seed), compute)


def _section_quermass(section: bd.ConvexBody | None, j: int,
                      sub_samples: int, rng: RngStream) -> float:
    if section is None:
        return 0.0
    return it.quermass_estimate(section, j, sub_samples, rng).value


def _require_flags(body: bd.ConvexBody, *, symmetric: bool = False,
                   centered: bool = False) -> None:
    if symmetric and not body.flags.symmetric:
        raise PreconditionError("check requires a symmetric body")
    if centered and not body.flags.centered:
        raise PreconditionError("check requires a centered body")


def _require_kj(n: int, k: int, j: int) -> None:
    if not (1 <= k <= n - 1 and 0 <= j <= n - k - 1):
        raise PreconditionError(
            f"need 1 <= k <= n-1 and 0 <= j <= n-k-1, got n={n}, k={k}, j={j}")


def _resolve_flat(body: bd.ConvexBody, k: int, flat, rng: RngStream) -> gr.Subspace:
    if flat is not None:
        return flat if isinstance(flat, gr.Subspace) else gr.subspace_from_basis(flat)
    return gr.haar_subspace(body.dim, k, rng.split_named("flat-choice"))


# ---------------------------------------------------------------------------
# flat-average identities and bounds


def crofton_check(body: bd.ConvexBody, k: int, j: int,
                  samples: int = DEFAULT_FLATS, rng: RngStream = RngStream(0),
                  sub_samples: int = DEFAULT_SUB_SAMPLES) -> CheckReport:
    """Flat-average identity: the integral of W_j over (n-k)-dimensional
    affine flats equals alpha_{n,k,j} W_j(K)."""
    started = time.perf_counter()
    n = body.dim
    _require_kj(n, k, j)
    m = n - k
    vals = np.empty(samples)
    offsets_gen = rng.split_named("offsets").generator()
    done = 0
    chunk_id = 0
    while done < samples:
        take = min(512, samples - done)
        bases = gr.haar_bases(n, m, take, rng.split(chunk_id))
        for t in range(take):
            flat = gr.Subspace(n, m, bases[t])
            comp = flat.complement()
            shadow = bd.project(body, comp.basis)
            weight = bd.volume(shadow)
            y = bd.sample_uniform_with(shadow, 1, offsets_gen)[0]
            section = bd.affine_section(body, flat, comp.basis @ y)
            vals[done + t] = weight * _section_quermass(
                section, j, sub_samples, rng.split(done + t))
        done += take
        chunk_id += 1
    acc = MeanAccumulator()
    acc.add(vals)
    middle = Estimate.from_accumulator(acc, rng.seed, "flat-mc")
    alpha = alpha_const(n, k, j)
    ref = reference_quermass(body, j, rng)
    rhs = ref.scaled(alpha)
    return _finish("crofton", body.describe(), {"n": n, "k": k, "j": j, "N": samples},
                   rhs, middle, rhs, {"alpha": alpha, "W_j(K)": ref.value},
                   rng.seed, started)


def lemma_rs_check(body: bd.ConvexBody, j: int, flat=None,
                   samples: int = 2000, rng: RngStream = RngStream(0),
                   sub_samples: int = DEFAULT_SUB_SAMPLES,
                   k: int | None = None) -> CheckReport:
    """Double bound for the offset integral of W_j over translates of a
    fixed complement flat, against the central-section value."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, centered=True)
    if flat is None and k is None:
        raise PreconditionError("provide a flat or its dimension k")
    k = k if k is not None else flat.k
    _require_kj(n, k, j)
    flat = _resolve_flat(body, k, flat, rng)
    comp = flat.complement()
    shadow = bd.project(body, flat.basis)
    pvol = bd.volume(shadow)
    central = bd.central_section(body, comp)
    wc = it.quermass_estimate(central, j, 4 * sub_samples,
                              rng.split_named("central"))
    ys = bd.sample_uniform(shadow, samples, rng.split_named("offsets"))
    vals = np.empty(samples)
    for i in range(samples):
        x = flat.basis @ ys[i]
        section = bd.affine_section(body, comp, x)
        vals[i] = _section_quermass(section, j, sub_samples, rng.split(i))
    acc = MeanAccumulator()
    acc.add(vals)
    middle = Estimate.from_accumulator(acc, rng.seed, "offset-mc").scaled(pvol)
    binom_inv = math.exp(-log_binom(n - j, k))
    sy = stephen_yaskin_factor(n, k, j)
    lower = wc.scaled(binom_inv * pvol)
    upper = wc.scaled(sy * pvol)
    details = {}
    if body.flags.symmetric:
        sym_up = wc.scaled(pvol)
        details["symmetric_upper_margin"] = _margin(
            sym_up.value - middle.value, _combined_sigma(middle, sym_up),
            abs(middle.value) + abs(sym_up.value))
    return _finish("lemma-rs", body.describe(), {"n": n, "k": k, "j": j, "N": samples},
                   lower, middle, upper,
                   {"binom_inv": binom_inv, "sy_factor": sy, "|P_F K|": pvol,
                    "W_j(K cap Fperp)": wc.value},
                   rng.seed, started, details=details)


def thm11_check(body: bd.ConvexBody, k: int, j: int,
                samples: int = 2000, rng: RngStream = RngStream(0),
                sub_samples: int = DEFAULT_SUB_SAMPLES) -> CheckReport:
    """Double bound for E_F[|shadow on F-perp| * W_j(K cap F)] over Haar
    (n-k)-dimensional subspaces."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, centered=True)
    _require_kj(n, k, j)
    m = n - k
    vals = np.empty(samples)
    done = 0
    chunk_id = 0
    while done < samples:
        take = min(512, samples - done)
        bases = gr.haar_bases(n, m, take, rng.split(chunk_id))
        for t in range(take):
            flat = gr.Subspace(n, m, bases[t])
            shadow = bd.project(body, flat.complement().basis)
            section = bd.central_section(body, flat)
            vals[done + t] = bd.volume(shadow) * _section_quermass(
                section, j, sub_samples, rng.split(done + t))
        done += take
        chunk_id += 1
    acc = MeanAccumulator()
    acc.add(vals)
    middle = Estimate.from_accumulator(acc, rng.seed, "flat-mc")
    alpha = alpha_const(n, k, j)
    shrink = shrink_factor(n, k, j)
    big = math.exp(log_binom(n - j, k))
    ref = reference_quermass(body, j, rng)
    lower = ref.scaled(alpha * shrink)
    upper = ref.scaled(alpha * big)
    return _finish("thm-1-1", body.describe(), {"n": n, "k": k, "j": j, "N": samples},
                   lower, middle, upper,
                   {"alpha": alpha, "shrink": shrink, "binom": big,
                    "W_j(K)": ref.value},
                   rng.seed, started)


@dataclass
class MaxOverFlats:
    """Best sampled value of a section functional over Haar subspaces.

    A lower bound on the true maximum (finite sampling), so inequalities
    with this max on their large side can pass conservatively but never
    hard-fail."""

    best: Estimate
    best_subspace: gr.Subspace
    trials: int


def _max_section_quermass(body: bd.ConvexBody, k: int, j: int, trials: int,
                          rng: RngStream, sub_samples: int) -> MaxOverFlats:
    """Sampled max of W_j over central (n-k)-dimensional sections."""
    n = body.dim
    best = -math.inf
    best_flat = None
    best_est: Estimate | None = None
    done = 0
    chunk_id = 0
    while done < trials:
        take = min(512, trials - done)
        bases = gr.haar_bases(n, n - k, take, rng.split_named("max").split(chunk_id))
        for t in range(take):
            flat = gr.Subspace(n, n - k, bases[t])
            section = bd.central_section(body, flat)
            if section is None:
                continue
            est = it.quermass_estimate(section, j, sub_samples,
                                       rng.split(done + t))
            if est.value > best:
                best = est.value
                best_flat = flat
                best_est = est
        done += take
        chunk_id += 1
    if best_est is None:
        raise CheckError("all sampled sections were empty")
    return MaxOverFlats(best=best_est, best_subspace=best_flat, trials=trials)


def cor12_check(body: bd.ConvexBody, k: int, j: int,
                flat_trials: int = 2000, rng: RngStream = RngStream(0),
                sub_samples: int = DEFAULT_SUB_SAMPLES) -> CheckReport:
    """gamma * shrink * W_j(K) <= W_{n-k}(K) * max_F W_j(K cap F), with the
    max approximated by sampling (pass is conservative-valid)."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, centered=True)
    _require_kj(n, k, j)
    sampled = _max_section_quermass(body, k, j, flat_trials, rng, sub_samples)
    wnk = reference_quermass(body, n - k, rng)
    middle = wnk.times(sampled.best)
    gamma = gamma_cor12_const(n, k, j)
    shrink = shrink_factor(n, k, j)
    ref = reference_quermass(body, j, rng)
    lower = ref.scaled(gamma * shrink)
    return _finish("cor-1-2", body.describe(),
                   {"n": n, "k": k, "j": j, "N": flat_trials},
                   lower, middle, None,
                   {"gamma": gamma, "shrink": shrink, "W_j(K)": ref.value,
                    "W_{n-k}(K)": wnk.value},
                   rng.seed, started, inconclusive_on_lower_fail=True,
                   note="sampled max on the large side")


def _ratio_flat_average(body: bd.ConvexBody, k: int, j: int, samples: int,
                        rng: RngStream, sub_samples: int) -> Estimate:
    n = body.dim
    guard = 1e-12 * bd.volume(body) ** ((n - k) / n)
    vals = np.empty(samples)
    i = 0
    chunk_id = 0
    while i < samples:
        if chunk_id * 512 > 20 * samples + 1024:
            raise CheckError("section volume guard rejected too many flats")
        bases = gr.haar_bases(n, n - k, 512, rng.split_named("ratio").split(chunk_id))
        chunk_id += 1
        for t in range(512):
            if i >= samples:
                break
            flat = gr.Subspace(n, n - k, bases[t])
            section = bd.central_section(body, flat)
            if section is None:
                continue
            vol = bd.volume(section)
            if vol <= guard:
                continue
            wj = _section_quermass(section, j, sub_samples, rng.split(i))
            vals[i] = wj / vol
            i += 1
    acc = MeanAccumulator()
    acc.add(vals)
    return Estimate.from_accumulator(acc, rng.seed, "ratio-mc")


def thm12_check(body: bd.ConvexBody, k: int, j: int,
                samples: int = 2000, rng: RngStream = RngStream(0),
                sub_samples: int = DEFAULT_SUB_SAMPLES) -> CheckReport:
    """Symmetric-body double bound for E_F[W_j(K cap F)/|K cap F|] against
    W_j(K)/|K|."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, symmetric=True)
    _require_kj(n, k, j)
    middle = _ratio_flat_average(body, k, j, samples, rng, sub_samples)
    alpha = alpha_const(n, k, j)
    ref = reference_quermass(body, j, rng).scaled(1.0 / bd.volume(body))
    lo_c = alpha * math.exp(-log_binom(n, k))
    up_c = alpha * math.exp(log_binom(n - j, k))
    return _finish("thm-1-2", body.describe(), {"n": n, "k": k, "j": j, "N": samples},
                   ref.scaled(lo_c), middle, ref.scaled(up_c),
                   {"alpha": alpha, "lower_coeff": lo_c, "upper_coeff": up_c,
                    "W_j(K)/|K|": ref.value},
                   rng.seed, started)


def thm34_check(body: bd.ConvexBody, k: int, j: int,
                samples: int = 2000, rng: RngStream = RngStream(0),
                sub_samples: int = DEFAULT_SUB_SAMPLES) -> CheckReport:
    """Centered-body variant of the ratio bound, with the attenuated lower
    constant and the max-section-inflated upper constant."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, centered=True)
    _require_kj(n, k, j)
    middle = _ratio_flat_average(body, k, j, samples, rng, sub_samples)
    beta = beta_thm34_const(n, k, j)
    gamma = gamma_thm34_const(n, k, j)
    ref = reference_quermass(body, j, rng).scaled(1.0 / bd.volume(body))
    return _finish("thm-3-4", body.describe(), {"n": n, "k": k, "j": j, "N": samples},
                   ref.scaled(beta), middle, ref.scaled(gamma),
                   {"beta": beta, "gamma": gamma, "W_j(K)/|K|": ref.value},
                   rng.seed, started)


# ---------------------------------------------------------------------------
# fixed-flat projection/section inequalities


def spingarn_check(body: bd.ConvexBody, k: int | None = None, flat=None,
                   rng: RngStream = RngStream(0), **_) -> CheckReport:
    """|P_F K| |K cap F-perp| <= C(n,k) |K| for a fixed k-dimensional F."""
    started = time.perf_counter()
    n = body.dim
    if flat is None and k is None:
        raise PreconditionError("provide a flat or its dimension k")
    k = k if k is not None else flat.k
    if not 1 <= k <= n - 1:
        raise PreconditionError("need 1 <= k <= n-1")
    flat = _resolve_flat(body, k, flat, rng)
    pv = bd.volume(bd.project(body, flat.basis))
    sec = bd.central_section(body, flat.complement())
    sv = bd.volume(sec) if sec is not None else 0.0
    middle = Estimate.exact(pv * sv)
    upper = Estimate.exact(math.exp(log_binom(n, k)) * bd.volume(body))
    return _finish("spingarn", body.describe(), {"n": n, "k": k},
                   None, middle, upper,
                   {"binom": math.exp(log_binom(n, k)), "|K|": bd.volume(body)},
                   rng.seed, started)


def rs_lower_check(body: bd.ConvexBody, k: int | None = None, flat=None,
                   rng: RngStream = RngStream(0), **_) -> CheckReport:
    """|K| <= |P_F K| |K cap F-perp| for symmetric bodies."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, symmetric=True)
    if flat is None and k is None:
        raise PreconditionError("provide a flat or its dimension k")
    k = k if k is not None else flat.k
    if not 1 <= k <= n - 1:
        raise PreconditionError("need 1 <= k <= n-1")
    flat = _resolve_flat(body, k, flat, rng)
    pv = bd.volume(bd.project(body, flat.basis))
    sec = bd.central_section(body, flat.complement())
    sv = bd.volume(sec) if sec is not None else 0.0
    middle = Estimate.exact(pv * sv)
    lower = Estimate.exact(bd.volume(body))
    return _finish("rs-lower", body.describe(), {"n": n, "k": k},
                   lower, middle, None, {"|K|": bd.volume(body)},
                   rng.seed, started)


def _offset_section_max(body: bd.ConvexBody, flat: gr.Subspace, j: int,
                        x_samples: int, rng: RngStream, sub_samples: int
                        ) -> tuple[float, np.ndarray]:
    """Sampled max over offsets x in the shadow of W_j(K cap (x + F-perp)),
    always including the central offset x = 0."""
    comp = flat.complement()
    shadow = bd.project(body, flat.basis)
    ys = bd.sample_uniform(shadow, x_samples, rng.split_named("xs"))
    best_val = -math.inf
    best_x = np.zeros(body.dim)
    for i in range(-1, x_samples):
        x = np.zeros(body.dim) if i < 0 else flat.basis @ ys[i]
        section = bd.affine_section(body, comp, x)
        val = _section_quermass(section, j, sub_samples, rng.split(i + 1))
        if val > best_val:
            best_val = val
            best_x = x
    return best_val, best_x


def fradelizi_check(body: bd.ConvexBody, k: int | None = None, flat=None,
                    x_samples: int = 200, rng: RngStream = RngStream(0),
                    sub_samples: int = DEFAULT_SUB_SAMPLES, **_) -> CheckReport:
    """max_x |K cap (x + F-perp)| <= ((n+1)/(n-k+1))^(n-k) |K cap F-perp|
    for centered bodies; the max is sampled, so a pass is not a certificate
    of the true max (noted), while a fail is a genuine violation."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, centered=True)
    if flat is None and k is None:
        raise PreconditionError("provide a flat or its dimension k")
    k = k if k is not None else flat.k
    if not 1 <= k <= n - 1:
        raise PreconditionError("need 1 <= k <= n-1")
    flat = _resolve_flat(body, k, flat, rng)
    best, best_x = _offset_section_max(body, flat, 0, x_samples, rng, sub_samples)
    central = bd.central_section(body, flat.complement())
    cvol = bd.volume(central) if central is not None else 0.0
    factor = fradelizi_factor(n, k)
    middle = Estimate.exact(best)
    upper = Estimate.exact(factor * cvol)
    rep = _finish("fradelizi", body.describe(), {"n": n, "k": k, "N": x_samples},
                  None, middle, upper,
                  {"factor": factor, "central_volume": cvol},
                  rng.seed, started, note="sampled max on the small side")
    rep.details["best_offset"] = best_x.tolist()
    return rep


def stephen_yaskin_check(body: bd.ConvexBody, j: int, k: int | None = None,
                         flat=None, x_samples: int = 200,
                         rng: RngStream = RngStream(0),
                         sub_samples: int = DEFAULT_SUB_SAMPLES, **_) -> CheckReport:
    """max_x W_j(K cap (x + F-perp)) <= ((n+1)/(n-k-j+1))^(n-k-j) times the
    central-section W_j, for centered bodies (sampled max, as above)."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, centered=True)
    if flat is None and k is None:
        raise PreconditionError("provide a flat or its dimension k")
    k = k if k is not None else flat.k
    _require_kj(n, k, j)
    flat = _resolve_flat(body, k, flat, rng)
    best, best_x = _offset_section_max(body, flat, j, x_samples, rng, sub_samples)
    central = bd.central_section(body, flat.complement())
    wc = it.quermass_estimate(central, j, 4 * sub_samples, rng.split_named("central"))
    factor = stephen_yaskin_factor(n, k, j)
    middle = Estimate.exact(best)
    upper = wc.scaled(factor)
    rep = _finish("stephen-yaskin", body.describe(),
                  {"n": n, "k": k, "j": j, "N": x_samples},
                  None, middle, upper,
                  {"factor": factor, "central_wj": wc.value},
                  rng.seed, started, note="sampled max on the small side")
    rep.details["best_offset"] = best_x.tolist()
    return rep


# ---------------------------------------------------------------------------
# random-hull functionals


def dpp_spotcheck(body: bd.ConvexBody, d: int, q: int,
                  samples: int = 20_000, rng: RngStream = RngStream(0),
                  norm_probes: int = 256) -> CheckReport:
    """Spot check of the marginal-density lower bound: the expected hull
    volume of q projected uniform points dominates
    (|K| / (omega_d * max section volume))^(m/d) times the ball constant.

    The max section volume is sampled, which overestimates the bound's
    right side, so a pass is conservative-valid."""
    started = time.perf_counter()
    n = body.dim
    if not 1 <= d <= n - 1:
        raise PreconditionError("need 1 <= d <= n-1")
    if q < 1:
        raise PreconditionError("need q >= 1")
    flat = gr.haar_subspace(n, d, rng.split_named("marginal-flat"))
    comp = flat.complement()
    pts = bd.sample_uniform(body, samples * q, rng.split_named("tuples"))
    proj = (pts @ flat.basis).reshape(samples, q, d)
    acc = MeanAccumulator()
    acc.add(_hull_volumes(proj, True))
    middle = Estimate.from_accumulator(acc, rng.seed, "marginal-mc")

    probe_pts = bd.sample_uniform(body, norm_probes, rng.split_named("probes"))
    fmax = 0.0
    for i in range(-1, norm_probes):
        x = np.zeros(n) if i < 0 else flat.basis @ (flat.basis.T @ probe_pts[i])
        section = bd.affine_section(body, comp, x)
        if section is not None:
            fmax = max(fmax, bd.volume(section))
    m = min(q, d)
    ratio = (bd.volume(body) / (omega(d) * fmax)) ** (m / d)
    const = dpp_constant(d, q, True, DEFAULT_CONSTANT_SAMPLES,
                         RngStream(rng.seed).split_named(f"dpp-{d}-{q}"))
    lower = const.scaled(ratio)
    return _finish("dpp-spot", body.describe(), {"n": n, "k": d, "N": q},
                   lower, middle, None,
                   {"ratio": ratio, "f_max": fmax, "ball_constant": const.value},
                   rng.seed, started, note="sampled max inflates the bound")


def _expected_subdim_hull_quermass(body: bd.ConvexBody, q: int, j: int,
                                   samples: int, rng: RngStream,
                                   sub_samples: int) -> tuple[Estimate, int]:
    """E[W_j of conv{0, x_1..x_q} in its own span], x_i uniform in the body."""
    pts = bd.sample_uniform(body, samples * q, rng.split_named("tuples"))
    tuples = pts.reshape(samples, q, body.dim)
    vals = np.empty(samples)
    degenerate = 0
    for i in range(samples):
        est = it.quermass_subdim(tuples[i], j, sub_samples, rng.split(i))
        if est is None:
            degenerate += 1
            vals[i] = 0.0
        else:
            vals[i] = est.value
    if degenerate > 0.001 * samples:
        logger.warning("%d/%d degenerate tuples (tolerance bug?)",
                       degenerate, samples)
    acc = MeanAccumulator()
    acc.add(vals)
    return Estimate.from_accumulator(acc, rng.seed, "tuple-mc"), degenerate


def thm43_check(body: bd.ConvexBody, k: int, j: int,
                samples: int = 20_000, rng: RngStream = RngStream(0),
                sub_samples: int = DEFAULT_SUB_SAMPLES,
                centered_variant: bool = False,
                constant_samples: int = DEFAULT_CONSTANT_SAMPLES) -> CheckReport:
    """Double bound: c_{n,k,j} W_{k+j}(K) <= E[W_j^(n-k)(conv{0, n-k points})]
    <= delta_{n,k,j} W_{k+j}(K), points uniform in K (volume normalization
    cancelled).  The centered variant attenuates the lower constant."""
    started = time.perf_counter()
    n = body.dim
    if centered_variant:
        _require_flags(body, centered=True)
    else:
        _require_flags(body, symmetric=True)
    _require_kj(n, k, j)
    q = n - k
    middle, degenerate = _expected_subdim_hull_quermass(
        body, q, j, samples, rng, sub_samples)
    wref = reference_quermass(body, k + j, rng)
    const_stream = RngStream(rng.seed)
    c_est = (cprime_const if centered_variant else c_const)(
        n, k, j, constant_samples, const_stream)
    delta = delta_const(n, k, j)
    lower = c_est.times(wref)
    upper = wref.scaled(delta)
    check_id = "cor-4-7" if centered_variant else "thm-4-3"
    return _finish(check_id, body.describe(), {"n": n, "k": k, "j": j, "N": samples},
                   lower, middle, upper,
                   {"c": c_est.value, "c_sigma": c_est.std_error, "delta": delta,
                    "W_{k+j}(K)": wref.value, "degenerate_tuples": degenerate},
                   rng.seed, started)


def cor47_check(body: bd.ConvexBody, k: int, j: int, **kwargs) -> CheckReport:
    return thm43_check(body, k, j, centered_variant=True, **kwargs)


def bp_identity_check(body: bd.ConvexBody, s: int,
                      samples: int = 4000, rng: RngStream = RngStream(0),
                      constant_samples: int = DEFAULT_CONSTANT_SAMPLES) -> CheckReport:
    """With the calibrated p(n,s), the flat decomposition of the s-point
    product integral recovers |K|^s on an arbitrary body."""
    started = time.perf_counter()
    n = body.dim
    if not 1 <= s <= n - 1:
        raise PreconditionError("need 1 <= s <= n-1")
    p_est = bp_calibrate(n, s, constant_samples,
                         RngStream(rng.seed).split_named(f"bp-{n}-{s}"))
    vols = np.empty(samples)
    tuples = np.empty((samples, s, s))
    produced = 0
    attempts = 0
    while produced < samples:
        sub = rng.split(attempts)
        attempts += 1
        if attempts > 20 * samples + 100:
            raise CheckError("too many empty sections")
        flat = gr.haar_subspace(n, s, sub)
        section = bd.central_section(body, flat)
        if section is None:
            continue
        vol = bd.volume(section)
        if vol <= 0.0:
            continue
        vols[produced] = vol
        tuples[produced] = bd.sample_uniform(section, s, sub.split_named("pts"))
        produced += 1
    acc = MeanAccumulator()
    acc.add(vols ** s * _hull_volumes(tuples, True) ** (n - s))
    inner = Estimate.from_accumulator(acc, rng.seed, "bp-mc")
    middle = inner.times(p_est)
    target = Estimate.exact(bd.volume(body) ** s)
    return _finish("bp-identity", body.describe(), {"n": n, "k": s, "N": samples},
                   target, middle, target,
                   {"p(n,s)": p_est.value, "p_sigma": p_est.std_error,
                    "|K|^s": target.value},
                   rng.seed, started)


def thm45_check(body: bd.ConvexBody, k: int, j: int,
                flat_trials: int = 2000, rng: RngStream = RngStream(0),
                sub_samples: int = DEFAULT_SUB_SAMPLES,
                centered_variant: bool = False,
                constant_samples: int = DEFAULT_CONSTANT_SAMPLES) -> CheckReport:
    """W_{k+j}(K) <= c^{-1} max_F W_j(K cap F) (sampled max: pass is
    conservative-valid, a failed margin is inconclusive)."""
    started = time.perf_counter()
    n = body.dim
    if centered_variant:
        _require_flags(body, centered=True)
    else:
        _require_flags(body, symmetric=True)
    _require_kj(n, k, j)
    sampled = _max_section_quermass(body, k, j, flat_trials, rng, sub_samples)
    wref = reference_quermass(body, k + j, rng)
    c_est = (cprime_const if centered_variant else c_const)(
        n, k, j, constant_samples, RngStream(rng.seed))
    lower = c_est.times(wref)
    check_id = "cor-4-8" if centered_variant else "thm-4-5"
    return _finish(check_id, body.describe(),
                   {"n": n, "k": k, "j": j, "N": flat_trials},
                   lower, sampled.best, None,
                   {"c": c_est.value, "W_{k+j}(K)": wref.value},
                   rng.seed, started, inconclusive_on_lower_fail=True,
                   note="sampled max on the large side")


def cor48_check(body: bd.ConvexBody, k: int, j: int, **kwargs) -> CheckReport:
    return thm45_check(body, k, j, centered_variant=True, **kwargs)


def thm13_check(body: bd.ConvexBody, k: int, j: int,
                flat_trials: int = 2000, rng: RngStream = RngStream(0),
                sub_samples: int = DEFAULT_SUB_SAMPLES,
                constant_samples: int = DEFAULT_CONSTANT_SAMPLES) -> CheckReport:
    """W_j(K)^(n-k-j) <= (omega_n^k c^(n-j))^{-1} max_F W_j(K cap F)^(n-j),
    plus the ordering step omega_n^k W_j^(n-k-j) <= W_{k+j}^(n-j) as its
    own sub-margin."""
    started = time.perf_counter()
    n = body.dim
    _require_flags(body, symmetric=True)
    _require_kj(n, k, j)
    sampled = _max_section_quermass(body, k, j, flat_trials, rng, sub_samples)
    middle = sampled.best.powered(float(n - j))
    wj = reference_quermass(body, j, rng)
    c_est = c_const(n, k, j, constant_samples, RngStream(rng.seed))
    lower = c_est.powered(float(n - j)).times(
        wj.powered(float(n - k - j))).scaled(omega(n) ** k)
    wkj = reference_quermass(body, k + j, rng)
    alek_lhs = wj.powered(float(n - k - j)).scaled(omega(n) ** k)
    alek_rhs = wkj.powered(float(n - j))
    alek_margin = _margin(alek_rhs.value - alek_lhs.value,
                          _combined_sigma(alek_lhs, alek_rhs),
                          abs(alek_lhs.value) + abs(alek_rhs.value))
    rep = _finish("thm-1-3", body.describe(),
                  {"n": n, "k": k, "j": j, "N": flat_trials},
                  lower, middle, None,
                  {"c": c_est.value, "W_j(K)": wj.value, "W_{k+j}(K)": wkj.value},
                  rng.seed, started, inconclusive_on_lower_fail=True,
                  note="sampled max on the large side")
    rep.details["ordering_step_margin"] = alek_margin
    if alek_margin < -SIGMA_THRESHOLD:
        rep.verdict = "fail"
    return rep


def thm46_check(body: bd.ConvexBody, j: int, big_n: int,
                samples: int = 20_000, rng: RngStream = RngStream(0),
                sub_samples: int = DEFAULT_SUB_SAMPLES,
                centered_variant: bool = False,
                constant_samples: int = DEFAULT_CONSTANT_SAMPLES) -> CheckReport:
    """c_{n,N,j} W_j(K) <= E[W_j(conv{x_1..x_N})], x_i uniform in K, N >= n+1."""
    started = time.perf_counter()
    n = body.dim
    if centered_variant:
        _require_flags(body, centered=True)
    else:
        _require_flags(body, symmetric=True)
    if big_n < n + 1:
        raise PreconditionError("need N >= n+1")
    if not 0 <= j <= n - 1:
        raise PreconditionError("need 0 <= j <= n-1")
    pts = bd.sample_uniform(body, samples * big_n, rng.split_named("tuples"))
    tuples = pts.reshape(samples, big_n, n)
    vals = np.empty(samples)
    degenerate = 0
    for i in range(samples):
        try:
            hull_body = bd.vpolytope(tuples[i])
        except bd.BodyError:
            hull_body = None
        if hull_body is None or hull_body._cache.get("degenerate"):
            degenerate += 1
            vals[i] = 0.0
            continue
        vals[i] = it.quermass_estimate(hull_body, j, sub_samples,
                                       rng.split(i)).value
    acc = MeanAccumulator()
    acc.add(vals)
    middle = Estimate.from_accumulator(acc, rng.seed, "tuple-mc")
    wref = reference_quermass(body, j, rng)
    c_est = c46_const(n, big_n, j, constant_samples, RngStream(rng.seed),
                      centered=centered_variant)
    lower = c_est.times(wref)
    check_id = "thm-1-4-centered" if centered_variant else "thm-4-6"
    return _finish(check_id, body.describe(),
                   {"n": n, "j": j, "N": big_n, "samples": samples},
                   lower, middle, None,
                   {"c": c_est.value, "W_j(K)": wref.value,
                    "degenerate_tuples": degenerate},
                   rng.seed, started)


def thm46_centered_check(body: bd.ConvexBody, j: int, big_n: int, **kwargs
                         ) -> CheckReport:
    return thm46_check(body, j, big_n, centered_variant=True, **kwargs)


# ---------------------------------------------------------------------------
# ordering suite and quermass Brunn-Minkowski


def aleksandrov_suite(body: bd.ConvexBody, rng: RngStream = RngStream(0),
                      samples: int = DEFAULT_REF_SAMPLES) -> CheckReport:
    """Monotonicity of Q_j = (W_{n-j}/omega_n)^{1/j} and the sandwich
    vrad(K) <= Q_j <= mean support, all within three combined sigma."""
    started = time.perf_counter()
    n = body.dim
    qv = it.quermass_vector(body, rng, samples)
    q_ests = []
    for j in range(1, n + 1):
        q_ests.append(qv.estimate(n - j).scaled(1.0 / omega(n)).powered(1.0 / j))
    chain = []
    for j in range(len(q_ests) - 1):
        a, b = q_ests[j], q_ests[j + 1]
        chain.append(_margin(a.value - b.value, _combined_sigma(a, b),
                             abs(a.value) + abs(b.value)))
    vrad = q_ests[-1]
    width = q_ests[0]
    sandwich = []
    for q in q_ests:
        sandwich.append(_margin(q.value - vrad.value, _combined_sigma(q, vrad),
                                abs(q.value) + abs(vrad.value)))
        sandwich.append(_margin(width.value - q.value, _combined_sigma(q, width),
                                abs(q.value) + abs(width.value)))
    worst = min(chain + sandwich)
    verdict = "pass" if worst >= -SIGMA_THRESHOLD else "fail"
    rep = CheckReport(
        check_id="aleksandrov", body=body.describe(), params={"n": n},
        lower=vrad, middle=width, upper=None,
        constants={"Q": [q.value for q in q_ests]},
        margin_lower=worst, margin_upper=math.inf, verdict=verdict,
        note="margin is the worst of the chain and sandwich comparisons",
        seed=rng.seed, wall_time=time.perf_counter() - started,
        details={"chain_margins": chain, "sandwich_margins": sandwich,
                 "methods": qv.methods},
    )
    return rep


def bm_quermass_check(body: bd.ConvexBody, other: bd.ConvexBody | None = None,
                      j: int = 0, rng: RngStream = RngStream(0),
                      samples: int = DEFAULT_REF_SAMPLES) -> CheckReport:
    """Brunn-Minkowski for quermassintegrals:
    W_j(K+D)^(1/(n-j)) >= W_j(K)^(1/(n-j)) + W_j(D)^(1/(n-j))."""
    started = time.perf_counter()
    n = body.dim
    if not 0 <= j <= n - 1:
        raise PreconditionError("need 0 <= j <= n-1")
    if other is None:
        g = rng.split_named("partner").generator().standard_normal((10, n))
        other = bd.vpolytope(np.vstack([g, -g]), bd.Flags(symmetric=True))
    ksum = bd.minkowski_sum(body, other)
    e = 1.0 / (n - j)
    lhs = it.quermass_estimate(ksum, j, samples, rng.split_named("sum")).powered(e)
    wk = it.quermass_estimate(body, j, samples, rng.split_named("k")).powered(e)
    wd = it.quermass_estimate(other, j, samples, rng.split_named("d")).powered(e)
    rhs = Estimate(wk.value + wd.value, math.hypot(wk.std_error, wd.std_error),
                   max(wk.samples, wd.samples), rng.seed, "sum")
    return _finish("bm-quermass", f"{body.describe()}+{other.describe()}",
                   {"n": n, "j": j}, rhs, lhs, None,
                   {"W_j(K)^e": wk.value, "W_j(D)^e": wd.value},
                   rng.seed, started)
