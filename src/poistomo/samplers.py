"""Dimension-robust MCMC kernels for the coefficient-space posterior.

Every kernel is one Metropolis step: a reference-preserving Gaussian
proposal recentred by a drift vector g,

    (2 + delta) v = (2 - delta) z - 2 delta g + sqrt(8 delta) w,

accepted by the ratio of the acceptance functional ``rho`` (``_rho`` below).
The kernels differ only in the drift:

* ``pcn``    g = 0, so the step is v = sqrt(1 - beta^2) z + beta w and the
  log ratio is psi(z) - psi(v).  It runs at
  delta(beta) = 2 beta^2 / (1 + sqrt(1 - beta^2))^2, where
  (2 - delta)/(2 + delta) = sqrt(1 - beta^2) and
  sqrt(8 delta)/(2 + delta) = beta;
* ``pcnl``   g = gradient of psi (smooth case only);
* ``pdpcn``  g = offset_direction at the frozen splitting anchor, so the
  nonsmooth TV term is handled without ever differentiating it.

A state is its coefficients, their evaluation and their drift, so each step
evaluates the posterior once, at the proposal.  Every kernel consumes
randomness in the same order (noise vector first, acceptance uniform
second), which keeps matched-seed comparisons meaningful.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .admm import MapResult, offset_direction
from .posterior import PosteriorEval, TGPosterior

__all__ = [
    "SamplerConfig",
    "Chain",
    "ChainDivergence",
    "Anchor",
    "run_chain",
    "tune_stepsize",
    "anchor_from_map",
    "save_chain",
    "load_chain",
]

KINDS = ("pcn", "pcnl", "pdpcn")
_KIND_CODE = {k: i for i, k in enumerate(KINDS)}


class ChainDivergence(RuntimeError):
    """Raised when a chain reaches a non-finite potential."""


@dataclass(frozen=True)
class SamplerConfig:
    kind: str
    n_samples: int
    beta: float = 0.1
    delta: float = 0.1
    burn_in: int | None = None
    thinning: int = 1
    seed: int = 0
    k_proj: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 < self.delta <= 2.0:
            raise ValueError(f"delta must lie in (0, 2], got {self.delta}")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")
        burn = self.effective_burn_in
        if not 0 <= burn < self.n_samples:
            raise ValueError(f"burn_in must lie in [0, n_samples), got {burn}")
        if self.k_proj is not None and self.k_proj < 0:
            raise ValueError("k_proj must be nonnegative")

    @property
    def effective_burn_in(self) -> int:
        return self.n_samples // 10 if self.burn_in is None else self.burn_in

    @property
    def stepsize(self) -> float:
        return self.beta if self.kind == "pcn" else self.delta

    @property
    def n_kept(self) -> int:
        return (self.n_samples - self.effective_burn_in) // self.thinning


class Anchor(NamedTuple):
    """Frozen splitting variables that define the pdpcn drift: the split
    field and multiplier, each a (2, nx, ny) array, and the penalty."""

    split: np.ndarray
    multiplier: np.ndarray
    rho_pen: float


def anchor_from_map(result: MapResult, rho_pen: float) -> Anchor:
    return Anchor(result.split, result.multiplier, rho_pen)


def _accept(log_ratio: float, rng: np.random.Generator) -> bool:
    return rng.random() < math.exp(min(log_ratio, 0.0))


def _rho(ev_z: PosteriorEval, z, v, g, delta: float) -> float:
    """Acceptance functional of the gradient-informed proposal family.

    rho(z, v) = psi(z) + <v - z, g>/2 + (delta/4) <z + v, g>
                + (delta/4) ||g||^2,
    with psi(z) from the evaluation ev_z at z and g a coefficient-space
    derivative vector evaluated at z.  The proposal kernel is reversible when
    the same g enters forward and reverse evaluations; pairings are Euclidean
    because derivative vectors already absorb the covariance square root.
    """
    return (ev_z.psi
            + 0.5 * float(np.dot(v - z, g))
            + 0.25 * delta * float(np.dot(z + v, g))
            + 0.25 * delta * float(np.dot(g, g)))


def _drift(post: TGPosterior, config: SamplerConfig, anchor: Anchor | None):
    """The configured kernel's drift, a function of an evaluation."""
    if config.kind == "pcn":
        zero = np.zeros(post.n_modes)
        return lambda ev: zero
    if config.kind == "pcnl":
        if post.tv_weight != 0.0:
            raise ValueError("pcnl requires a differentiable potential; "
                             "tv_weight must be 0")
        return post.phi_grad_at
    if anchor is None:
        raise ValueError("the pdpcn kernel needs a splitting anchor; solve the "
                         "MAP problem and pass anchor_from_map(result, rho_pen)")

    def offset(ev):
        # looked up at call time, so that a wrapped offset_direction is seen
        return offset_direction(post, ev, anchor.split, anchor.multiplier,
                                anchor.rho_pen, config.k_proj)
    return offset


def _step(post, z, ev, g, delta, drift, rng):
    """One Metropolis step from z, whose evaluation and drift are ev and g.

    Returns the next (z, ev, g) and whether the proposal was accepted.  The
    drift is recomputed at the proposal and both drifts enter the ratio, so
    the kernel targets the posterior exactly.
    """
    w = rng.standard_normal(z.size)
    v = ((2.0 - delta) * z - 2.0 * delta * g
         + math.sqrt(8.0 * delta) * w) / (2.0 + delta)
    ev_v = post.evaluate(v)
    g_v = drift(ev_v)
    log_ratio = _rho(ev, z, v, g, delta) - _rho(ev_v, v, z, g_v, delta)
    if _accept(log_ratio, rng):
        return v, ev_v, g_v, True
    return z, ev, g, False


@dataclass(frozen=True)
class Chain:
    """Kept samples plus per-step acceptance, potential and TV traces."""

    samples: np.ndarray = field(repr=False)
    config: SamplerConfig
    acceptance_rate: float
    accepted: np.ndarray | None = field(default=None, repr=False)
    psi_trace: np.ndarray | None = field(default=None, repr=False)
    reg_trace: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2:
            raise ValueError("samples must be a (count, n_modes) array")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def n_kept(self) -> int:
        return self.samples.shape[0]

    @property
    def n_modes(self) -> int:
        return self.samples.shape[1]


def run_chain(post: TGPosterior, config: SamplerConfig, init=None,
              anchor: Anchor | None = None) -> Chain:
    """Drive one chain and collect kept states.

    Burn-in defaults to a tenth of the run; a state is kept every
    ``thinning`` post-burn-in steps, giving floor((n - burn) / thinning)
    samples.  The pdpcn kernel needs the caller's splitting anchor (see
    anchor_from_map).  The whole run is a pure function of (posterior,
    config, init, anchor).
    """
    drift = _drift(post, config, anchor)
    if config.kind == "pcn":
        b = config.beta
        delta = 2.0 * b * b / (1.0 + math.sqrt(1.0 - b * b)) ** 2
    else:
        delta = config.delta
    rng = np.random.default_rng(config.seed)
    n = post.n_modes
    z = np.zeros(n) if init is None else np.array(init, dtype=float).reshape(n)
    ev = post.evaluate(z)
    g = drift(ev)

    burn = config.effective_burn_in
    thin = config.thinning
    kept = np.empty((config.n_kept, n))
    accepted = np.empty(config.n_samples, dtype=bool)
    psi_trace = np.empty(config.n_samples)
    reg_trace = np.empty(config.n_samples)
    j = 0
    for k in range(config.n_samples):
        z, ev, g, accepted[k] = _step(post, z, ev, g, delta, drift, rng)
        if not math.isfinite(ev.psi):
            raise ChainDivergence(f"non-finite potential at step {k}")
        psi_trace[k] = ev.psi
        reg_trace[k] = ev.reg
        if k >= burn and (k - burn + 1) % thin == 0:
            kept[j] = z
            j += 1
    return Chain(kept, config, float(np.mean(accepted)), accepted, psi_trace,
                 reg_trace)


def tune_stepsize(post: TGPosterior, kind: str, target: float = 0.25,
                  n_pilot: int = 2000, tol: float = 0.03, max_rounds: int = 12,
                  seed: int = 0, init=None, anchor: Anchor | None = None,
                  k_proj: int | None = None) -> float:
    """Bisect the stepsize until the pilot acceptance rate is near target.

    Acceptance decreases with the stepsize, so plain bisection applies.  The
    pilot chains share one seed, making the tuning deterministic.  The
    stepsize is beta for pcn and delta otherwise; the pdpcn kernel needs the
    caller's anchor, as in run_chain.
    """
    lo, hi = 1e-5, (1.0 if kind == "pcn" else 2.0)

    def acc(step: float) -> float:
        size = {"beta": step} if kind == "pcn" else {"delta": step}
        cfg = SamplerConfig(kind, n_pilot, burn_in=0, seed=seed,
                            k_proj=k_proj, **size)
        chain = run_chain(post, cfg, init=init, anchor=anchor)
        # rate over the tail only: a cold start biases the early acceptance
        return float(np.mean(chain.accepted[n_pilot // 4:]))

    if acc(hi) >= target:
        return hi
    for _ in range(max_rounds):
        mid = math.sqrt(lo * hi)
        a = acc(mid)
        if abs(a - target) <= tol:
            return mid
        if a > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# chain file: magic "CHN1", little-endian header, f64 samples, JSON sidecar

_CHAIN_HEADER = struct.Struct("<4sIIIIqBxxxxxxxd")


def save_chain(chain: Chain, path) -> None:
    """Write samples in binary with a JSON sidecar (path + ".json").

    Header: magic, format version, mode count, kept-sample count, thinning,
    seed, kernel code, stepsize; then row-major little-endian float64
    samples.  The sidecar records the full config and acceptance summary.
    """
    cfg = chain.config
    with open(path, "wb") as fh:
        fh.write(_CHAIN_HEADER.pack(b"CHN1", 1, chain.n_modes, chain.n_kept,
                                    cfg.thinning, cfg.seed,
                                    _KIND_CODE[cfg.kind], cfg.stepsize))
        # converts (copies) only if the samples are not little-endian f8 rows
        fh.write(np.ascontiguousarray(chain.samples, dtype="<f8"))
    sidecar = {
        "kind": cfg.kind,
        "n_samples": cfg.n_samples,
        "burn_in": cfg.effective_burn_in,
        "thinning": cfg.thinning,
        "seed": cfg.seed,
        "beta": cfg.beta,
        "delta": cfg.delta,
        "k_proj": cfg.k_proj,
        "n_kept": chain.n_kept,
        "n_modes": chain.n_modes,
        "acceptance_rate": chain.acceptance_rate,
    }
    with open(str(path) + ".json", "w", encoding="ascii") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_chain(path) -> Chain:
    """Rebuild a chain from disk; per-step traces are not persisted."""
    with open(path, "rb") as fh:
        head = fh.read(_CHAIN_HEADER.size)
        if len(head) < _CHAIN_HEADER.size:
            raise ValueError(f"{path}: truncated chain file")
        magic, version, n_modes, n_kept, thinning, seed, code, step = \
            _CHAIN_HEADER.unpack(head)
        if magic != b"CHN1":
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise ValueError(f"{path}: unsupported version {version}")
        samples = np.frombuffer(fh.read(), dtype="<f8")
    if samples.size != n_modes * n_kept:
        raise ValueError(f"{path}: sample block has {samples.size} floats, "
                         f"expected {n_modes * n_kept}")
    try:
        with open(str(path) + ".json", "r", encoding="ascii") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        sidecar = {}
    kind = KINDS[code]
    cfg = SamplerConfig(
        kind,
        int(sidecar.get("n_samples", max(n_kept * thinning, 1))),
        beta=float(sidecar.get("beta", step if kind == "pcn" else 0.1)),
        delta=float(sidecar.get("delta", step if kind != "pcn" else 0.1)),
        burn_in=int(sidecar["burn_in"]) if "burn_in" in sidecar else None,
        thinning=thinning,
        seed=seed,
        k_proj=sidecar.get("k_proj"),
    )
    rate = float(sidecar.get("acceptance_rate", math.nan))
    return Chain(samples.reshape(n_kept, n_modes), cfg, rate)
