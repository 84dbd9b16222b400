"""Seeded operation streams for the three benchmark workloads.

An op is one problem text, written exactly as a user would write it for
``mifht <command> --problem FILE``, plus the ground truth the benchmark
derived for it without calling mifht.  The program only ever sees the text.

Streams are infinite and deterministic in ``seed``.  What sets an op's cost
(command, interval count, ``nystrom``, whether theta is SPD) follows a fixed
stratified schedule, the same for every seed, so runs on different seeds do
the same amount of work and their spread is the machine's.  The seed draws
everything else: lengths and gaps from scrambled Sobol sequences, one per
command kind, so that any prefix of a stream covers them evenly, and theta
entries, data and preset seeds from per-op generators.

The streams stay where every op passes at the seed commit.  The known defects
outside that domain are probed by each workload's fixed defect probes
(``Workload.probes``), the same ops for every seed, so a fix or a regression
there changes the probe counts exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

# ROADMAP fixture n3 with off-diagonal 0.5 (SPD)
N3_INTERVALS = ((-3.0, -2.0), (-1.0, 0.0), (1.0, 3.0))
N3_THETA = ((1.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 1.0))

# the `random-sqrt MODES` preset: per interval, standard normal modes damped
# by DECAY**k, drawn from numpy.random.default_rng(seed) interval by interval
RANDOM_SQRT_DECAY = 0.7

_SOBOL_BLOCK = 256  # a power of two keeps the Sobol balance properties


@dataclass(frozen=True)
class Truth:
    """What a correct answer to an op looks like.

    kind is one of: ``phi`` (invert returns phi0), ``in_range`` and
    ``out_of_range`` (range-check verdicts), ``gamma`` (the Riemann-Hilbert
    identities hold), ``injective`` (injectivity evidence), ``uniform_f``
    (uniform-invert returns phi0) and ``range_violation`` (uniform-invert
    must raise RangeViolationError).
    """

    kind: str
    intervals: tuple
    coeffs: tuple = ()  # phi0 smooth-part U coefficients, one array per interval
    spd: bool = False


@dataclass(frozen=True)
class Op:
    index: int
    text: str
    truth: Truth


@dataclass(frozen=True)
class Workload:
    cycle: int  # ops per rotation through the workload's command kinds
    stream: object  # seed -> endless iterator of Op
    probes: object  # () -> list of Op on known defects, the same for every seed

    def ops(self, seed):
        return self.stream(seed)

    def warmup_op(self):
        """A fixed op, the same for every seed, run once before timing."""
        return next(self.stream(-1))


# ---------------------------------------------------------------------------
# ground truth


def random_sqrt_coeffs(n, modes, seed):
    """Coefficients of the `random-sqrt MODES` preset for a given seed."""
    rng = np.random.default_rng(seed)
    damp = RANDOM_SQRT_DECAY ** np.arange(modes)
    return tuple(rng.standard_normal(modes) * damp for _ in range(n))


def phi0_values(truth: Truth, j, x):
    """phi0 on interval j: sqrt((x - a)(b - x)) * sum_k a_k U_k(s)."""
    a, b = truth.intervals[j]
    x = np.asarray(x, dtype=float)
    s = (2.0 * x - (a + b)) / (b - a)
    u_prev, u = np.zeros_like(s), np.ones_like(s)
    acc = np.zeros_like(s)
    for coef in truth.coeffs[j]:
        acc += coef * u
        u_prev, u = u, 2.0 * s * u - u_prev
    return np.sqrt(np.maximum((x - a) * (b - x), 0.0)) * acc


# ---------------------------------------------------------------------------
# problem texts


def _fmt_intervals(intervals):
    return " ".join(f"({a!r},{b!r})" for a, b in intervals)


def _fmt_theta(theta):
    return "[" + ",".join("[" + ",".join(repr(float(v)) for v in row) + "]"
                          for row in theta) + "]"


def problem_text(command, intervals, theta, rhs=None, nystrom=None, seed=None):
    lines = [f"command = {command}",
             f"intervals = {_fmt_intervals(intervals)}",
             f"theta = {theta if isinstance(theta, str) else _fmt_theta(theta)}"]
    if rhs is not None:
        lines.append(f"rhs = {rhs}")
    if nystrom is not None:
        lines.append(f"nystrom = {nystrom}")
    if seed is not None:
        lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random configurations


def _seed_sequence(workload, seed, *more):
    # seed -1 is the fixed warm-up stream; run seeds are >= 0
    tag = int.from_bytes(workload.encode(), "little") % (1 << 63)
    return np.random.SeedSequence([tag, seed + 1, *more])


def _op_seed(ss):
    return int(ss.generate_state(1)[0])


def _sobol_points(dim, ss):
    """Endless scrambled Sobol points in [0, 1)^dim."""
    engine = qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng(ss))
    while True:
        yield from engine.random(_SOBOL_BLOCK)


# Gaps below ~0.02 make range-check reject in-range data, and gaps below
# ~0.09 leave the default uniform t-grid under-resolved (round-trip error
# above 1e-4).  At 0.2 the round-trip error stays under 3e-6, so the streams
# draw gaps from [GAP_MIN, 1] and the defect probes cover the gaps below.
GAP_MIN = 0.2


def _row(lengths, gaps):
    """Intervals of the given lengths separated by the given gaps, centred."""
    left = -0.5 * (sum(lengths) + sum(gaps))
    out = []
    for j, length in enumerate(lengths):
        out.append((float(left), float(left + length)))
        left += length + (gaps[j] if j < len(gaps) else 0.0)
    return tuple(out)


def _geometry(n, u_len, u_gap):
    """n intervals of length U[0.5, 2], gaps log-uniform in [GAP_MIN, 1]."""
    lengths = 0.5 + 1.5 * np.asarray(u_len[:n])
    gaps = GAP_MIN ** (1.0 - np.asarray(u_gap[: n - 1]))
    return _row(lengths, gaps)


def _spd_theta(n, rng):
    """Unit diagonal, symmetric off-diagonals in [-0.6, 0.6], eigenvalues > 0.05."""
    while True:
        t = np.eye(n)
        iu = np.triu_indices(n, 1)
        t[iu] = rng.uniform(-0.6, 0.6, size=len(iu[0]))
        t = t + np.triu(t, 1).T
        if np.linalg.eigvalsh(t)[0] > 0.05:
            return t


def _dominant_theta(n, rng):
    """Unit diagonal, non-symmetric, rows strictly diagonally dominant."""
    t = rng.uniform(-0.9, 0.9, size=(n, n)) / (n - 1)
    np.fill_diagonal(t, 1.0)
    return t


# ---------------------------------------------------------------------------
# the three streams


def _invert_stream(seed):
    truth_base = dict(kind="phi", intervals=N3_INTERVALS, spd=True)
    for i in itertools.count():
        s = _op_seed(_seed_sequence("invert-stream", seed, i))
        truth = Truth(coeffs=random_sqrt_coeffs(3, 16, s), **truth_base)
        text = problem_text("invert", N3_INTERVALS, N3_THETA,
                            rhs="forward-of random-sqrt 16", nystrom=256, seed=s)
        yield Op(i, text, truth)


# config-sweep rotates through these; each kind draws from its own Sobol stream
_SWEEP_KINDS = ("in_range", "out_of_range", "gamma", "injective")
_SWEEP_KIND_N = len(_SWEEP_KINDS)
_SWEEP_N = (2, 3, 4)
# apply_resolvent's quadrature nodes collide with its targets when
# nystrom + 1 is divisible by 3 or 11; the streams use the other sizes in
# [64, 256] and the defect probes cover the colliding ones.
NYSTROM_SIZES = tuple(m for m in range(64, 257) if (m + 1) % 3 and (m + 1) % 11)
# Cost grows steeply with n and nystrom, so the schedule stratifies both:
# each kind cycles through n, and for each (kind, n) nystrom walks
# NYSTROM_SIZES along a rank-1 lattice whose step is ~len/golden ratio and
# coprime to it, from a start that differs per (kind, n).  Any run then
# covers the sizes evenly for every n.  Two of every three ops of a
# (kind, n) get an SPD theta.
_NYSTROM_STEP = 73


def _sweep_schedule(i):
    """(kind, n, nystrom, spd) of op i: fixed, the same for every seed."""
    kind_index, j = i % _SWEEP_KIND_N, i // _SWEEP_KIND_N
    n_index, t = j % len(_SWEEP_N), j // len(_SWEEP_N)
    stratum = kind_index * len(_SWEEP_N) + n_index
    start = stratum * len(NYSTROM_SIZES) // (_SWEEP_KIND_N * len(_SWEEP_N))
    nystrom = NYSTROM_SIZES[(start + _NYSTROM_STEP * t) % len(NYSTROM_SIZES)]
    return _SWEEP_KINDS[kind_index], _SWEEP_N[n_index], nystrom, t % 3 != 2


def _config_sweep(seed):
    # Sobol dims: 4 lengths, 3 gaps
    streams = [_sobol_points(7, _seed_sequence("config-sweep", seed, k))
               for k in range(_SWEEP_KIND_N)]
    for i in itertools.count():
        kind, n, nystrom, spd = _sweep_schedule(i)
        kind_index = i % _SWEEP_KIND_N
        u = next(streams[kind_index])
        rng = np.random.default_rng(_seed_sequence("config-sweep", seed, kind_index, i))
        intervals = _geometry(n, u[0:4], u[4:7])
        theta = _spd_theta(n, rng) if spd else _dominant_theta(n, rng)
        rhs_seed = int(rng.integers(1 << 31))
        coeffs = ()
        if kind == "in_range":
            command, rhs = "range-check", "forward-of random-sqrt 16"
            coeffs = random_sqrt_coeffs(n, 16, rhs_seed)
        elif kind == "out_of_range":
            command, rhs = "range-check", "gaussian-bump"
        elif kind == "gamma":
            command, rhs = "gamma-check", None
        else:
            command, rhs = "injectivity-report", None
        text = problem_text(command, intervals, theta, rhs=rhs, nystrom=nystrom,
                            seed=rhs_seed)
        yield Op(i, text, Truth(kind, intervals, coeffs, spd))


def _uniform_roundtrip(seed):
    # in-range and out-of-range data alternate 3:1, and each cycles through
    # n = 1..4 on a fixed schedule; Sobol dims: 4 lengths, 3 gaps
    streams = {kind: _sobol_points(7, _seed_sequence("uniform-roundtrip", seed, k))
               for k, kind in enumerate(("uniform_f", "range_violation"))}
    for i in itertools.count():
        if i % 4 == 3:
            kind, n = "range_violation", 1 + (i // 4) % 4
        else:
            kind, n = "uniform_f", 1 + (i - i // 4) % 4
        u = next(streams[kind])
        intervals = _geometry(n, u[0:4], u[4:7])
        s = _op_seed(_seed_sequence("uniform-roundtrip", seed, 2, i))
        if kind == "uniform_f":
            rhs, coeffs = "forward-of random-sqrt 12", random_sqrt_coeffs(n, 12, s)
        else:
            rhs, coeffs = "gaussian-bump", ()
        text = problem_text("uniform-invert", intervals, "uniform", rhs=rhs, seed=s)
        yield Op(i, text, Truth(kind, intervals, coeffs))


# ---------------------------------------------------------------------------
# defect probes: fixed ops on the known defects the streams stay clear of

_PROBE_SIZES = range(64, 97)  # every residue of nystrom + 1 mod 33 once
_PROBE_GAPS = tuple(0.01 * 20.0 ** (k / 7) for k in range(8))  # 0.01 .. 0.2
_PROBE_SEED = 1


def _invert_probes():
    coeffs = random_sqrt_coeffs(3, 16, _PROBE_SEED)
    truth = Truth("phi", N3_INTERVALS, coeffs, spd=True)
    return [Op(i, problem_text("invert", N3_INTERVALS, N3_THETA,
                               rhs="forward-of random-sqrt 16", nystrom=m,
                               seed=_PROBE_SEED), truth)
            for i, m in enumerate(_PROBE_SIZES)]


def _range_check(index, intervals, theta, nystrom):
    text = problem_text("range-check", intervals, theta,
                        rhs="forward-of random-sqrt 16", nystrom=nystrom,
                        seed=_PROBE_SEED)
    return Op(index, text, Truth("in_range", intervals, spd=True))


def _config_probes():
    two = _row((1.0, 1.0), (0.5,))
    ops = [_range_check(i, two, ((1.0, 0.5), (0.5, 1.0)), m)
           for i, m in enumerate(_PROBE_SIZES)]
    for g in _PROBE_GAPS:
        ops.append(_range_check(len(ops), _row((1.0, 1.0, 1.0), (g, g)), N3_THETA,
                                _PROBE_SIZES[0]))
    return ops


def _uniform_probes():
    coeffs = random_sqrt_coeffs(3, 12, _PROBE_SEED)
    ops = []
    for i, g in enumerate(_PROBE_GAPS):
        intervals = _row((1.0, 1.0, 1.0), (g, g))
        text = problem_text("uniform-invert", intervals, "uniform",
                            rhs="forward-of random-sqrt 12", seed=_PROBE_SEED)
        ops.append(Op(i, text, Truth("uniform_f", intervals, coeffs)))
    return ops


WORKLOADS = {
    "invert-stream": Workload(1, _invert_stream, _invert_probes),
    "config-sweep": Workload(_SWEEP_KIND_N, _config_sweep, _config_probes),
    "uniform-roundtrip": Workload(4, _uniform_roundtrip, _uniform_probes),
}
