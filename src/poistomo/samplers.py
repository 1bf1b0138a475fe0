"""Dimension-robust MCMC kernels for the coefficient-space posterior.

Every kernel is one Metropolis step: a reference-preserving Gaussian
proposal recentred by a drift vector g,

    (2 + delta) v = (2 - delta) z - 2 delta g + sqrt(8 delta) w,

accepted by the ratio of the acceptance functional ``rho`` (``_rho`` below).
The two kernels differ only in the drift:

* ``pcn``    g = 0, so the step is v = sqrt(1 - beta^2) z + beta w and the
  log ratio is psi(z) - psi(v).  It runs at
  delta(beta) = 2 beta^2 / (1 + sqrt(1 - beta^2))^2, where
  (2 - delta)/(2 + delta) = sqrt(1 - beta^2) and
  sqrt(8 delta)/(2 + delta) = beta;
* ``pdpcn``  g = phi_grad_at(ev) + o, the likelihood gradient plus a
  constant offset o = offset_direction(post, eta*) taken once per chain from
  the MAP multiplier eta* (the anchor), so the nonsmooth TV term is handled
  without ever differentiating it.  A zero anchor gives o = 0, the
  pCN-Langevin kernel of Cotter et al. (2013).

A state is its coefficients, their evaluation and their drift, so each step
evaluates the posterior once, at the proposal.  ``chain_states`` yields each
state with its evaluation.  Both kernels consume randomness in the same
order (noise vector first, acceptance uniform second), which keeps
matched-seed comparisons meaningful.

A rejected step repeats the state, so the kept states of a chain come in
runs of equal consecutive rows.  ``walk_chain`` is the one pass over a
chain's chosen steps: it hands each run's state and evaluation to a
consumer once and returns the run index of every chosen step, the per-step
traces and the frozen stepsize.  Its consumers read what they need without
holding the chain or evaluating again: kept rows in ``run_chain``, a file
in ``stream_chain``, predictive discrepancies in the calibration sweep.
``Chain.samples`` is a ``RunMatrix``: it stores one row per run plus the
run index of every kept row, and the passes over a chain gather the row or
column blocks they need from it.  A chain file stores the same runs, each
run's row and length, then a record of the config and acceptance rate,
behind a header that holds a checksum of them.

A stepsize of None (beta for pcn, delta for pdpcn), the default, is tuned
in the chain's own burn-in (Robbins-Monro, Andrieu & Thoms 2008) and frozen
before the first kept state, so a tuned chain needs no separate pilot;
``walk_chain`` records the frozen value.
"""

from __future__ import annotations

import errno
import json
import logging
import math
import mmap
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .admm import MapResult, offset_direction
from .posterior import PosteriorEval, TGPosterior

__all__ = [
    "SamplerConfig",
    "Chain",
    "ChainDivergence",
    "RunMatrix",
    "chain_states",
    "kept_steps",
    "walk_chain",
    "run_chain",
    "tune_stepsize",
    "anchor_from_map",
    "stream_chain",
    "load_chain",
]

log = logging.getLogger(__name__)

KINDS = ("pcn", "pdpcn")
TARGET_ACCEPTANCE = 0.25    # where a tuned burn-in steers the stepsize


def _check_counts(**counts: int | None) -> None:
    """A count or cap of steps, states or iterations is >= 1; None: no cap."""
    for name, value in counts.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


class ChainDivergence(RuntimeError):
    """Raised when a chain reaches a non-finite potential."""


@dataclass(frozen=True)
class SamplerConfig:
    kind: str
    n_samples: int
    beta: float | None = None
    delta: float | None = None
    burn_in: int | None = None
    thinning: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        _check_counts(n_samples=self.n_samples, thinning=self.thinning)
        for name, top in (("beta", 1.0), ("delta", 2.0)):
            value = getattr(self, name)
            if value is not None and not 0.0 < value <= top:
                raise ValueError(f"{name} must lie in (0, {top:g}] or be "
                                 f"none, got {value}")
        # non-negative int64, the range calibrate's stream seeds wrap in
        if not 0 <= self.seed < 2 ** 63:
            raise ValueError(f"seed must lie in [0, 2**63), got {self.seed}")
        burn = self.n_samples // 10 if self.burn_in is None else self.burn_in
        object.__setattr__(self, "burn_in", burn)    # None: a tenth of the run
        if not 0 <= burn < self.n_samples:
            raise ValueError(f"burn_in must lie in [0, n_samples), got {burn}")
        if self.n_kept < 1:
            raise ValueError(f"burn_in {burn} and thinning {self.thinning} "
                             f"keep no state of {self.n_samples}")
        if self.stepsize is None and burn == 0:
            raise ValueError(f"{self.stepsize_name} none is tuned in the "
                             f"burn-in, which is 0 of {self.n_samples} steps")

    @property
    def stepsize_name(self) -> str:
        return "beta" if self.kind == "pcn" else "delta"

    @property
    def stepsize(self) -> float | None:
        return getattr(self, self.stepsize_name)

    @property
    def n_kept(self) -> int:
        return (self.n_samples - self.burn_in) // self.thinning


def anchor_from_map(result: MapResult, rho_pen: float) -> np.ndarray:
    """The pdpcn anchor of a MAP solve: its multiplier eta*, (2, nx, ny).
    rho_pen is ignored, and goes once the benchmark stops passing it."""
    return result.multiplier


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


def _drift(post: TGPosterior, config: SamplerConfig,
           anchor: np.ndarray | None):
    """The configured kernel's drift, a function of an evaluation: zero for
    pcn, else phi_grad_at(ev) + o, the offset o taken once from the anchor."""
    if config.kind == "pcn":
        zero = np.zeros(post.n_modes)
        return lambda ev: zero
    if anchor is None:
        raise ValueError("the pdpcn kernel needs an anchor; solve the MAP "
                         "problem and pass its multiplier")
    o = offset_direction(post, anchor)
    return lambda ev: post.phi_grad_at(ev) + o


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


@dataclass(frozen=True, eq=False)
class RunMatrix:
    """A read-only (count, n_cols) matrix held as its runs of equal rows.

    ``rows`` stores one row per run and ``run`` the run index of every row:
    row i is ``rows[run[i]]``.  It answers only the access forms that the
    passes over a chain use.  A row slice (``[lo:hi]``, ``[::thin]``) or a
    1-D index array is another RunMatrix that shares ``rows``; an integer or
    a (rows, columns) pair gives an ndarray gathered from the runs, and
    iteration gives the rows in order.  ``np.asarray`` forms the dense
    matrix and is meant for tests; ``__array_ufunc__ = None`` keeps ufuncs
    and operators from forming it unasked.

    It holds read-only views of the arrays it is given, not copies (a
    chain's rows may be a memory map): writing to those arrays changes it.
    """

    rows: np.ndarray = field(repr=False)
    run: np.ndarray = field(repr=False)

    __array_ufunc__ = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        run = np.asarray(self.run, dtype=np.intp)
        if rows.ndim != 2 or run.ndim != 1:
            raise ValueError("a run matrix needs (runs, n_cols) rows and a "
                             "1-D run index")
        for name, a in (("rows", rows), ("run", run)):
            if a.flags.writeable:       # freeze a view, not the caller's array
                a = a.view()
                a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.run.size, self.rows.shape[1])

    @property
    def n_runs(self) -> int:
        """Stored rows: the distinct states of a chain's kept samples."""
        return self.rows.shape[0]

    def stretches(self) -> tuple[np.ndarray, np.ndarray]:
        """(stored row, length) of each stretch of consecutive rows that share
        a stored row, in row order: the runs of a chain, fewer after a thin."""
        new = np.empty(self.run.size, dtype=bool)
        new[:1] = True
        np.not_equal(self.run[1:], self.run[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        return self.run[starts], np.diff(starts, append=self.run.size)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            rows, cols = key
            return self.rows[:, cols][self.run[rows]]
        run = self.run[key]
        if run.ndim == 1:
            return RunMatrix(self.rows, run)
        return self.rows[run]

    def __array__(self, dtype=None, copy=None):
        return self.rows[self.run].astype(dtype or float, copy=False)


@dataclass(frozen=True)
class Chain:
    """Kept samples plus per-step acceptance, potential and TV traces.

    ``samples`` is a ``RunMatrix``; a (count, n_modes) array s of distinct
    rows is ``RunMatrix(s, np.arange(len(s)))``.  It keeps at least one row,
    at an acceptance rate in [0, 1]: the passes over a chain need not check.
    """

    samples: RunMatrix = field(repr=False)
    config: SamplerConfig
    acceptance_rate: float
    accepted: np.ndarray | None = field(default=None, repr=False)
    psi_trace: np.ndarray | None = field(default=None, repr=False)
    reg_trace: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.samples, RunMatrix):
            raise TypeError("samples must be a RunMatrix")
        if self.n_kept == 0:
            raise ValueError("chain holds no kept samples")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError(f"acceptance rate {self.acceptance_rate} not in [0, 1]")

    @property
    def n_kept(self) -> int:
        return self.samples.shape[0]

    @property
    def n_modes(self) -> int:
        return self.samples.shape[1]


def _delta(kind: str, stepsize: float) -> float:
    """The proposal's delta at a stepsize: delta(beta) for pcn, else itself."""
    if kind != "pcn":
        return stepsize
    b = stepsize
    return 2.0 * b * b / (1.0 + math.sqrt(1.0 - b * b)) ** 2


def chain_states(post: TGPosterior, config: SamplerConfig, init=None,
                 anchor: np.ndarray | None = None):
    """Drive one chain, yielding ``(z, ev, accepted, stepsize)`` per step.

    z is the chain's state after the step (a fresh array whenever a proposal
    is accepted, never written in place), ev its posterior evaluation,
    accepted whether the step moved and stepsize (beta for pcn, delta
    otherwise) the one the next step takes.  All ``config.n_samples`` steps
    are yielded; burn-in and thinning are left to the consumer (see
    run_chain).  The pdpcn kernel needs the caller's anchor, a MAP solve's
    multiplier.  The sequence is a pure function of (posterior, config,
    init, anchor); a non-finite potential raises ChainDivergence.

    A stepsize of None is tuned in the burn-in by Robbins-Monro on log s:
    from a tenth of the top stepsize (beta 1 for pcn, delta 2 otherwise),
    burn-in step k moves log s by (accepted - TARGET_ACCEPTANCE) / k^0.6,
    capped at the top; after the burn-in s is frozen at exp of the mean of
    log s over its second half.
    """
    drift = _drift(post, config, anchor)
    rng = np.random.default_rng(config.seed)
    n = post.n_modes
    z = np.zeros(n) if init is None else np.array(init, dtype=float).reshape(n)
    ev = post.evaluate(z)
    g = drift(ev)
    tune, burn = config.stepsize is None, config.burn_in
    top = 1.0 if config.kind == "pcn" else 2.0
    step = 0.1 * top if tune else config.stepsize
    log_s, tail, n_accepted = math.log(step), 0.0, 0
    delta = _delta(config.kind, step)
    for k in range(1, config.n_samples + 1):
        z, ev, g, accepted = _step(post, z, ev, g, delta, drift, rng)
        if not math.isfinite(ev.psi):
            raise ChainDivergence(f"non-finite potential at step {k - 1}")
        if tune and k <= burn:
            n_accepted += accepted
            log_s = min(log_s + (accepted - TARGET_ACCEPTANCE) / k ** 0.6,
                        math.log(top))
            if 2 * k > burn:
                tail += log_s
            step = math.exp(log_s if k < burn else tail / (burn - burn // 2))
            delta = _delta(config.kind, step)
            if k == burn:
                log.info("tuned %s %s = %.4g, burn-in acceptance %.3f",
                         config.kind, config.stepsize_name, step,
                         n_accepted / burn)
        yield z, ev, accepted, step


def kept_steps(config: SamplerConfig) -> np.ndarray:
    """Step indices whose states a chain keeps: every ``thinning``-th
    post-burn-in step, floor((n - burn) / thinning) of them."""
    thin = config.thinning
    return (config.burn_in + thin - 1
            + thin * np.arange(config.n_kept))


def walk_chain(post: TGPosterior, config: SamplerConfig, steps, new_state,
               init=None, anchor: np.ndarray | None = None):
    """Drive one chain (chain_states) and hand on the states at ``steps``.

    steps is an ascending array of step indices, such as kept_steps(config)
    or a subsample of it.  chain_states yields the same array object until a
    proposal is accepted, so the chosen steps fall in runs that share a
    state; ``new_state(i, z, ev)`` is called once per run, with the run's
    index i, its state and its evaluation.  Returns the run index of each
    chosen step, the per-step ``(accepted, psi_trace, reg_trace)``, the
    config with the stepsize the chosen states were drawn at, tuned or
    given, and the chain's last state.
    """
    run = np.empty(steps.size, dtype=np.intp)
    accepted = np.empty(config.n_samples, dtype=bool)
    psi_trace = np.empty(config.n_samples)
    reg_trace = np.empty(config.n_samples)
    j = n_runs = 0
    last = None
    for k, (z, ev, moved, step) in enumerate(chain_states(post, config, init,
                                                          anchor)):
        accepted[k] = moved
        psi_trace[k] = ev.psi
        reg_trace[k] = ev.reg
        if j < steps.size and k == steps[j]:
            if z is not last:
                new_state(n_runs, z, ev)
                last = z
                n_runs += 1
            run[j] = n_runs - 1
            j += 1
    return (run, (accepted, psi_trace, reg_trace),
            replace(config, **{config.stepsize_name: step}), z)


def run_chain(post: TGPosterior, config: SamplerConfig, init=None,
              anchor: np.ndarray | None = None) -> Chain:
    """Drive one chain and collect kept states and per-step traces.

    Burn-in defaults to a tenth of the run; a state is kept every
    ``thinning`` post-burn-in steps (kept_steps).  The states are those of
    chain_states, so the whole run is a pure function of (posterior,
    config, init, anchor).  A kept state is stored once per run
    (walk_chain, ``RunMatrix``); the others add only a run index.  Each new
    kept state is copied into the next row of one (n_kept, n_modes) block,
    an anonymous memory map whose pages cost memory only once written: rows
    no state reaches are address space, and no state is held twice.  A
    block the system cannot reserve raises MemoryError before the first
    step; chains whose kept states would not fit belong in ``stream_chain``.
    The returned config holds the stepsize the kept states were drawn at,
    tuned or given, and the acceptance rate is that of the post-burn-in
    steps, which all ran at it.
    """
    keep = kept_steps(config)
    size = keep.size * post.n_modes * 8
    try:
        buf = mmap.mmap(-1, size)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(
            f"run_chain cannot reserve {size / 2 ** 30:.1f} GiB for "
            f"{keep.size} kept states of {post.n_modes} modes; keep fewer "
            "(a larger thinning) or write them to a file with "
            "stream_chain") from exc
    block = np.frombuffer(buf).reshape(keep.size, post.n_modes)

    def store(i, z, ev):
        block[i] = z

    run, traces, config, _ = walk_chain(post, config, keep, store, init,
                                        anchor)
    return Chain(RunMatrix(block[:run[-1] + 1], run), config,
                 float(np.mean(traces[0][config.burn_in:])), *traces)


def tune_stepsize(post: TGPosterior, kind: str, n_pilot: int = 2000,
                  seed: int = 0, init=None, anchor: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray]:
    """Tune the stepsize on a pilot; return it and the pilot's last state.

    The pilot is the n_pilot-step burn-in of a chain whose stepsize is None
    (chain_states).  Every such chain tunes in its own burn-in, so no library
    code runs a pilot.  The pdpcn kernel needs the caller's anchor.
    """
    cfg = SamplerConfig(kind, n_pilot + 1, burn_in=n_pilot, seed=seed)
    for z, _, _, step in islice(chain_states(post, cfg, init, anchor),
                                n_pilot):
        pass
    return step, z


# ---------------------------------------------------------------------------
# chain file: a little-endian header (magic "CHN1", format version 4, mode
# count, run count, record length, CRC-32 of every byte after the header),
# one f64 row per run of equal kept states, the <i8 length of each run, then
# the record: the ASCII JSON of the config's fields and the acceptance rate

_CHAIN_HEADER = struct.Struct("<4sIIIII")


def stream_chain(post: TGPosterior, config: SamplerConfig, path, init=None,
                 anchor: np.ndarray | None = None
                 ) -> tuple[SamplerConfig, float]:
    """Run a chain and write each new kept state to a chain file as it comes.

    ``load_chain`` of the file gives the samples, config and acceptance rate
    of ``run_chain``, but no kept state is held after the next one is
    written (walk_chain): only the per-step traces, 17 bytes a step, are.
    The run lengths and the record follow the rows once the chain ends,
    with the header, whose checksum is summed as the bytes go out, written
    last.  The file is written beside ``path`` and renamed once the chain
    completes, so a chain that fails
    (ChainDivergence, a bad kernel configuration) leaves no file at
    ``path``.  Returns the config, with the stepsize the kept states were
    drawn at, and the acceptance rate of the post-burn-in steps.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    crc = 0

    def write(data):
        nonlocal crc
        fh.write(data)
        crc = zlib.crc32(data, crc)

    try:
        with open(part, "wb") as fh:
            fh.seek(_CHAIN_HEADER.size)
            run, (accepted, _, _), config, _ = walk_chain(
                post, config, kept_steps(config),
                lambda i, z, ev: write(np.ascontiguousarray(z, "<f8")),
                init, anchor)
            lengths = np.bincount(run)
            write(lengths.astype("<i8").tobytes())
            rate = float(np.mean(accepted[config.burn_in:]))
            record = json.dumps({**asdict(config), "acceptance_rate": rate})
            write(record.encode("ascii"))
            fh.seek(0)
            fh.write(_CHAIN_HEADER.pack(b"CHN1", 4, post.n_modes,
                                        lengths.size, len(record), crc))
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)
    return config, rate


def load_chain(path) -> Chain:
    """Rebuild a chain from disk; per-step traces are not persisted.

    It holds the file's rows, one per run, their lengths and the record's
    config and acceptance rate.  A bad magic or version, a size that does
    not match the header, a checksum that does not match the bytes after
    it, no modes, a record that is not a config and a rate in [0, 1], run
    lengths that are not positive or do not add up to the config's kept
    count, or a non-finite row raise ValueError naming it.
    """
    with open(path, "rb") as fh:
        head = fh.read(_CHAIN_HEADER.size)
        if len(head) < _CHAIN_HEADER.size:
            raise ValueError(f"{path}: truncated chain file")
        (magic, version, n_modes, n_runs, n_record,
         crc) = _CHAIN_HEADER.unpack(head)
        if magic != b"CHN1":
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != 4:
            raise ValueError(f"{path}: unsupported chain file version "
                             f"{version}, expected 4")
        if n_modes == 0:
            raise ValueError(f"{path}: the header holds no modes")
        size = os.fstat(fh.fileno()).st_size - _CHAIN_HEADER.size
        expected = 8 * n_runs * (n_modes + 1) + n_record
        if size != expected:
            raise ValueError(f"{path}: {size} bytes follow the header, "
                             f"which promises {expected}")
        rows = np.fromfile(fh, dtype="<f8", count=n_runs * n_modes)
        lengths = np.fromfile(fh, dtype="<i8", count=n_runs)
        record = fh.read(n_record)
    if zlib.crc32(record, zlib.crc32(lengths, zlib.crc32(rows))) != crc:
        raise ValueError(f"{path}: checksum mismatch, the file is corrupt")
    try:
        record = json.loads(record.decode("ascii"))
        cfg = SamplerConfig(**{f.name: record[f.name]
                               for f in fields(SamplerConfig)})
        rate = float(record["acceptance_rate"])
    except KeyError as exc:
        raise ValueError(f"{path}: the record has no {exc.args[0]!r} "
                         "field") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad record: {exc}") from None
    if np.any(lengths < 1) or lengths.sum() != cfg.n_kept:
        raise ValueError(f"{path}: run lengths must be positive and add up "
                         f"to the config's {cfg.n_kept} kept samples")
    # NaN and +-inf reach the min or the max: no n_runs x n_modes mask
    if not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        raise ValueError(f"{path}: a row holds a non-finite value")
    try:
        return Chain(RunMatrix(rows.reshape(n_runs, n_modes),
                               np.repeat(np.arange(n_runs), lengths)), cfg, rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
