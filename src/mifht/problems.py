"""Problem-file parsing, command dispatch and result serialization.

Problem files are line-based ``key = value`` text::

    command = invert
    intervals = (-2,-1) (1,2)
    theta = [[1,0.5],[0.5,1]]        # or: uniform | identity
    rhs = forward-of cheb-sqrt 1 1.0
    modes = 96
    nystrom = 64
    seed = 1234

The rhs grammar is a preset name followed by numeric arguments; the
``forward-of`` preset composes the forward map over a nested preset, which
makes in-range fixtures one-liners.  Sample data comes in through
``rhs = samples <path>`` with the same four-column table format results are
written in (interval_index, x, re_value, im_value).
"""

from __future__ import annotations

import ast
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .chebyshev import PiecewiseFunction, cheb1_nodes
from .errors import SchemaError
from .gamma import (
    build_gamma,
    invert_via_resolvent,
    range_check_L1_variant,
    range_condition_J12,
    range_condition_N2,
)
from .intervals import IntervalSystem, make_interval_system
from .single import range_scan
from .solver import (
    SPD,
    ThetaMatrix,
    compute_c,
    compute_nu,
    forward_map,
    injectivity_report,
    random_sqrt_vanishing,
    solve_phi,
)
from .uniform import (
    TGrid,
    build_spectral_data,
    uniform_forward,
    uniform_invert_with_verdict,
)

COMMANDS = ("forward", "invert", "range-check", "gamma-check",
            "uniform-invert", "injectivity-report", "selftest")

_DEFAULTS = {
    "modes": 128,
    "nystrom": 96,
    "tmax": 32.0,
    "dt": 1.0 / 64.0,
    "lambda": complex(1.0, 0.0),
    "seed": 1234,
    "tol": 1e-6,
}


@dataclass
class ProblemSpec:
    command: str
    intervals: list
    theta: str | list
    rhs: list
    params: dict = field(default_factory=dict)
    source_text: str = ""

    def param(self, key):
        return self.params.get(key, _DEFAULTS[key])

    def system(self) -> IntervalSystem:
        return make_interval_system(self.intervals)

    def theta_matrix(self) -> ThetaMatrix:
        n = len(self.intervals)
        if self.theta == "uniform":
            return ThetaMatrix(np.ones((n, n)))
        if self.theta == "identity":
            return ThetaMatrix(np.eye(n))
        try:
            t = np.asarray(self.theta, dtype=float)
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"theta: entries must be numbers: {exc}") from None
        if t.shape != (n, n):
            raise SchemaError(
                f"theta shape {t.shape} does not match {n} intervals")
        if not np.all(np.isfinite(t)):
            raise SchemaError("theta: entries must be finite")
        return ThetaMatrix(t)


def parse_problem(text: str) -> ProblemSpec:
    """Parse the text of a problem file into a validated spec."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in entries:
            raise SchemaError(f"line {lineno}: key '{key}' is already given "
                              f"on line {entries[key][1]}")
        entries[key] = (value, lineno)

    def take(key, required=False):
        if key in entries:
            return entries.pop(key)[0]
        if required:
            raise SchemaError(f"missing required key '{key}'")
        return None

    command = (take("command", required=True) or "").lower()
    if command not in COMMANDS:
        raise SchemaError(f"unknown command '{command}'; choose from {COMMANDS}")

    raw_iv = take("intervals", required=True)
    try:
        pairs = [ast.literal_eval(tok) for tok in raw_iv.split()]
        intervals = [(float(a), float(b)) for a, b in pairs]
    except (ValueError, SyntaxError, TypeError) as exc:
        raise SchemaError(f"intervals: cannot parse {raw_iv!r}: {exc}") from None

    raw_theta = take("theta") or "identity"
    if raw_theta in ("uniform", "identity"):
        theta = raw_theta
    else:
        try:
            theta = ast.literal_eval(raw_theta)
        except (ValueError, SyntaxError) as exc:
            raise SchemaError(f"theta: cannot parse {raw_theta!r}: {exc}") from None

    raw_rhs = take("rhs")
    rhs = raw_rhs.split() if raw_rhs else ["const", "0"]

    params = {}
    numeric = {"modes": int, "nystrom": int, "tmax": float, "dt": float,
               "seed": int, "tol": float}
    for key, conv in numeric.items():
        val = take(key)
        if val is not None:
            try:
                params[key] = conv(val)
            except ValueError as exc:
                raise SchemaError(f"{key}: {exc}") from None
    lam_raw = take("lambda")
    if lam_raw is not None:
        params["lambda"] = parse_lambda(lam_raw)
    if entries:
        bad = ", ".join(f"'{k}' (line {v[1]})" for k, v in entries.items())
        raise SchemaError(f"unknown keys: {bad}")

    spec = ProblemSpec(command=command, intervals=intervals, theta=theta,
                       rhs=rhs, params=params, source_text=text)
    spec.system()
    spec.theta_matrix()
    return spec


def parse_lambda(raw) -> complex:
    """The spectral parameter from its ``RE,IM`` text form."""
    try:
        re, im = (float(p) for p in raw.split(","))
    except ValueError as exc:
        raise SchemaError(f"lambda: expected RE,IM: {exc}") from None
    return complex(re, im)


def validate_params(spec: ProblemSpec):
    """Reject numeric parameters no command can run with.

    Runs on the final parameters, after any command-line overrides.
    """
    for key, low in (("nystrom", 1), ("modes", 2), ("seed", 0)):
        if spec.param(key) < low:
            raise SchemaError(f"{key} must be at least {low}, got {spec.param(key)}")
    for key in ("dt", "tmax", "tol"):
        val = spec.param(key)
        if not (np.isfinite(val) and val > 0):
            raise SchemaError(f"{key} must be finite and positive, got {val}")
    lam = spec.param("lambda")
    if not np.isfinite(lam) or lam == 0:
        raise SchemaError(f"lambda must be finite and nonzero, got {lam}")


# ---------------------------------------------------------------------------
# rhs presets


def build_rhs(spec: ProblemSpec, sys: IntervalSystem, theta: ThetaMatrix
              ) -> PiecewiseFunction:
    return _build_preset(spec.rhs, spec, sys, theta)


def _arg(name, args, i, conv, default, low=None, above=None):
    """Preset argument i converted by conv, or the default when absent.

    Every argument must be finite; ``low`` bounds it from below inclusively
    and ``above`` strictly.
    """
    if len(args) <= i:
        return default
    try:
        val = conv(args[i])
    except ValueError:
        raise SchemaError(f"rhs {name}: argument {i + 1} must be "
                          f"{conv.__name__}, got {args[i]!r}") from None
    if not np.isfinite(val) or (low is not None and val < low) or (
            above is not None and val <= above):
        bound = (f" and at least {low}" if low is not None else
                 f" and above {above}" if above is not None else "")
        raise SchemaError(f"rhs {name}: argument {i + 1} must be finite{bound}, "
                          f"got {args[i]!r}")
    return val


def _build_preset(tokens, spec, sys, theta) -> PiecewiseFunction:
    if not tokens:
        raise SchemaError("empty rhs preset")
    name, *args = tokens
    N = spec.param("modes")
    if name == "const":
        v = _arg(name, args, 0, float, 1.0)
        return PiecewiseFunction.from_callable(sys, lambda x: np.full_like(x, v), N=8)
    if name == "linear":
        a = _arg(name, args, 0, float, 0.0)
        b = _arg(name, args, 1, float, 1.0)
        return PiecewiseFunction.from_callable(sys, lambda x: a + b * x, N=8)
    if name == "cheb-sqrt":
        k = _arg(name, args, 0, int, 0, low=0)
        amp = _arg(name, args, 1, float, 1.0)
        coeffs = []
        for _ in range(sys.n):
            c = np.zeros(max(k + 1, 2))
            c[k] = amp
            coeffs.append(c)
        return PiecewiseFunction(sys, coeffs, weighted=True, field="real")
    if name == "gaussian-bump":
        center = _arg(name, args, 0, float, float(np.mean(sys.mid)))
        width = _arg(name, args, 1, float, 0.5, above=0.0)
        amp = _arg(name, args, 2, float, 1.0)
        return PiecewiseFunction.from_callable(
            sys, lambda x: amp * np.exp(-(((x - center) / width) ** 2)), N=N)
    if name == "random-sqrt":
        modes = _arg(name, args, 0, int, 16, low=1)
        amp = _arg(name, args, 1, float, 1.0)
        f = random_sqrt_vanishing(sys, modes=modes, seed=spec.param("seed"))
        return f * amp
    if name == "forward-of":
        inner = _build_preset(args, spec, sys, theta)
        return forward_map(theta, inner)
    if name == "samples":
        if not args:
            raise SchemaError("samples preset needs a file path")
        return _load_samples(args[0], sys, N)
    raise SchemaError(f"unknown rhs preset '{name}'")


def _load_samples(path, sys, N):
    try:
        try:
            data = np.loadtxt(path)
        except ValueError:
            data = np.loadtxt(path, skiprows=1)  # header row
    except (OSError, ValueError) as exc:
        raise SchemaError(f"samples: cannot read {path}: {exc}") from None
    if data.ndim == 1:
        data = data[None, :]
    if data.shape[1] < 3:
        raise SchemaError("sample tables need columns: interval, x, re [, im]")
    nodes, values = [], []
    for j in range(sys.n):
        rows = data[data[:, 0].astype(int) == j]
        if rows.size == 0:
            raise SchemaError(f"sample table has no rows for interval {j}")
        vals = rows[:, 2]
        if data.shape[1] > 3:
            vals = vals + 1j * rows[:, 3]
        nodes.append(rows[:, 1])
        values.append(vals)
    return PiecewiseFunction.from_samples(sys, nodes, values, N=N)


# ---------------------------------------------------------------------------
# result bundle


@dataclass
class ResultBundle:
    command: str
    diagnostics: dict
    tables: dict
    provenance: dict

    def to_json(self):
        return json.dumps(
            {"command": self.command, "diagnostics": self.diagnostics,
             "provenance": self.provenance},
            indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


def _check(value, tolerance):
    value = float(value)
    return {"value": value, "tolerance": float(tolerance),
            "pass": bool(value <= tolerance)}


def _table(pf: PiecewiseFunction):
    """Rows (interval_index, x, re_value, im_value), 64 per interval, as one array."""
    blocks = []
    for j in range(pf.sys.n):
        x = pf.sys.from_unit(j, np.linspace(-1, 1, 64))
        v = np.asarray(pf.piece_values(j, x), dtype=complex)
        blocks.append(np.column_stack([np.full(x.shape, j), x, v.real, v.imag]))
    return np.concatenate(blocks)


def write_bundle(bundle: ResultBundle, outdir):
    """One diagnostics file plus one table file per returned function."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "diagnostics.json").write_text(bundle.to_json() + "\n")
    for name, rows in bundle.tables.items():
        lines = ["interval_index\tx\tre_value\tim_value"]
        for j, x, re, im in rows:
            lines.append(f"{int(j)}\t{x:.17g}\t{re:.17g}\t{im:.17g}")
        (out / f"{name}.tsv").write_text("\n".join(lines) + "\n")
    return out


def read_table(path):
    data = np.loadtxt(path, skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    return data


# ---------------------------------------------------------------------------
# command dispatch


def run_command(spec: ProblemSpec) -> ResultBundle:
    validate_params(spec)
    sys = spec.system()
    theta = spec.theta_matrix()
    t0 = time.time()
    handler = {
        "forward": _cmd_forward,
        "invert": _cmd_invert,
        "range-check": _cmd_range_check,
        "gamma-check": _cmd_gamma_check,
        "uniform-invert": _cmd_uniform_invert,
        "injectivity-report": _cmd_injectivity,
        "selftest": _cmd_selftest,
    }[spec.command]
    diagnostics, tables = handler(spec, sys, theta)
    diagnostics["elapsed_seconds"] = round(time.time() - t0, 3)
    provenance = {
        "input_sha256": hashlib.sha256(spec.source_text.encode()).hexdigest(),
        "parameters": {k: spec.param(k) for k in _DEFAULTS},
        "versions": {"mifht": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    return ResultBundle(command=spec.command, diagnostics=diagnostics,
                        tables=tables, provenance=provenance)


def _cmd_forward(spec, sys, theta):
    phi = build_rhs(spec, sys, theta)
    psi = forward_map(theta, phi, nmodes=spec.param("modes"))
    c = compute_c(psi)
    diag = {"c": np.real(c).tolist()}
    return diag, {"psi": _table(psi)}


def _kappa_list(psi):
    return [complex(range_scan(psi, j).kappa) for j in range(psi.sys.n)]


def _cmd_invert(spec, sys, theta):
    psi = build_rhs(spec, sys, theta)
    tol = spec.param("tol")
    # Gamma first: its complex64 LU (8 N^2 bytes) is the op's largest transient,
    # and built first it runs beside Gamma's own K only, not the direct solve's
    gam = (build_gamma(sys, theta, lam=1.0, size=spec.param("nystrom"))
           if theta.classification == SPD else None)
    res = solve_phi(theta, psi, size=spec.param("nystrom"))
    diag = {
        "c": np.real(res.c).tolist(),
        "kappa": _kappa_list(psi),
        "sigma_min": res.diagnostics["sigma_min"],
        "sigma_max": res.diagnostics["sigma_max"],
        "solve": res.diagnostics["solve"],
        "linear_residual": _check(res.diagnostics["residual"], tol),
        "range2_residual": _check(
            np.max(np.abs(res.diagnostics["range2_residual"])), tol),
        "classification": theta.classification,
        "warning": res.diagnostics["warning"],
        "sketch": res.nystrom.sketch,
    }
    diag["resolution"] = {"phi_modes": [a.size for a in res.phi.coeffs]}
    tables = {"phi": _table(res.phi), "nu": _table(res.nu)}
    if gam is not None:
        phi_r = invert_via_resolvent(res.nu, gam)
        x = np.concatenate([sys.from_unit(j, np.linspace(-0.95, 0.95, 24))
                            for j in range(sys.n)])
        disc = float(np.max(np.abs(res.phi(x) - phi_r(x))))
        diag["two_path_discrepancy"] = _check(disc, tol)
        diag["resolution"].update(gam.density_resolution(),
                                  resolvent_modes=[a.size for a in phi_r.coeffs])
        tables["phi_resolvent"] = _table(phi_r)
    return diag, tables


def _cmd_range_check(spec, sys, theta):
    psi = build_rhs(spec, sys, theta)
    tol = spec.param("tol")
    c = compute_c(psi)
    nu = compute_nu(psi, c, theta)
    gam = build_gamma(sys, theta, lam=1.0, size=spec.param("nystrom"))
    cJ = range_condition_J12(nu, gam)
    diag = {
        "c": np.real(c).tolist(),
        "kappa": _kappa_list(psi),
        "predicted_c_general": np.real(cJ).tolist(),
        "general_defect": _check(np.max(np.abs(cJ - c)), tol * (1 + np.max(np.abs(c)))),
    }
    if theta.is_symmetric:
        cN = range_condition_N2(nu, gam)
        diag["predicted_c_symmetric"] = np.real(cN).tolist()
        diag["symmetric_defect"] = _check(np.max(np.abs(cN - c)),
                                   tol * (1 + np.max(np.abs(c))))
        l1 = range_check_L1_variant(psi, c, nu, gam)
        diag["integrable_residual"] = _check(np.max(np.abs(l1["integrable"])), tol)
        if l1["zero_shift"] is not None:
            diag["zero_shift_residual"] = _check(
                np.max(np.abs(l1["zero_shift"])), tol)
    verdicts = [v["pass"] for v in diag.values() if isinstance(v, dict)
                and "pass" in v]
    diag["in_range"] = bool(all(verdicts))
    diag["resolution"] = gam.density_resolution()
    diag["sketch"] = gam.nystrom.sketch
    return diag, {"nu": _table(nu)}


def _cmd_gamma_check(spec, sys, theta):
    lam = spec.param("lambda")
    gam = build_gamma(sys, theta, lam=lam, size=spec.param("nystrom"))
    pts = np.concatenate([sys.from_unit(j, np.linspace(-0.9, 0.9, 20))
                          for j in range(sys.n)])
    far = 1e3 * sys.scale * np.exp(1j * np.linspace(0.2, np.pi - 0.2, 8))
    eye = np.eye(sys.n)
    decay = float(np.max(np.abs(gam.eval(far) - eye)))
    dets = gam.det(pts, side=1)
    nj_f, nj_g = _nojump_residuals(gam, pts)
    diag = {
        "jump_residual": _check(gam.jump_residual(pts), 1e-7),
        "det_drift": _check(np.max(np.abs(dets - 1.0)), 1e-8),
        "identity_decay_at_1e3_scale": _check(decay, 1e-5),
        "nojump_gamma_f": _check(nj_f, 1e-8),
        "nojump_gt_gamma_inv": _check(nj_g, 1e-8),
        "f_solve_residual": gam.f_residual,
        "solve": gam.f_solve,
        "resolution": gam.density_resolution(),
        "sketch": gam.nystrom.sketch,
    }
    return diag, {}


def _nojump_residuals(gam, pts):
    """max |(Gamma_+ - Gamma_-) f| and max |g^t (Gamma_+^{-1} - Gamma_-^{-1})|."""
    gp, gm = gam.eval(pts, side=+1), gam.eval(pts, side=-1)
    fv, gv = gam.f_vector(pts), gam.g_vector(pts)
    df = np.einsum("pab,pb->pa", gp - gm, fv)
    dg = np.einsum("pa,pab->pb", gv, np.linalg.inv(gp) - np.linalg.inv(gm))
    return (float(np.max(np.abs(df), initial=0.0)),
            float(np.max(np.abs(dg), initial=0.0)))


def _cmd_uniform_invert(spec, sys, theta):
    if theta.classification != "uniform":
        raise SchemaError("uniform-invert requires theta = uniform")
    grid = TGrid(npoints=_pow2_points(spec), dt=spec.param("dt"))
    g = build_rhs(spec, sys, theta)
    sd = build_spectral_data(sys)
    f, verdict = uniform_invert_with_verdict(sd, g, grid,
                                             range_tol=spec.param("tol"))
    gg = uniform_forward(sd, f, grid)
    x = np.concatenate([sys.from_unit(j, np.linspace(-0.9, 0.9, 24))
                        for j in range(sys.n)])
    diag = {
        "range_pass": verdict["pass"],
        "dc_energy": verdict["dc_energy"].tolist(),
        "roundtrip_residual": _check(
            float(np.max(np.abs(gg(x) - g(x)))), 1e-4 * (1 + g.norm2())),
        "grid": {"npoints": grid.npoints, "dt": grid.dt},
        "resolution": {"t_boundary_fraction": verdict["t_boundary_fraction"]},
    }
    return diag, {"f": _table(f)}


def _pow2_points(spec):
    """The least power of two, at least 2^8, that holds 2 tmax / dt points.

    Grids above 2^16 points (16 times the default; tmax 200, the limit of
    the inverse maps, at dt = 1/128) are rejected before any is allocated.
    """
    n = np.rint(2 * spec.param("tmax") / spec.param("dt"))
    if n > 1 << 16:
        raise SchemaError(f"2 tmax / dt = {n:.3g} t-grid points, above the "
                          "limit of 2^16: raise dt or lower tmax")
    return 1 << max(8, (int(n) - 1).bit_length())


def _cmd_injectivity(spec, sys, theta):
    rep = injectivity_report(theta, sys, size=spec.param("nystrom"))
    diag = {
        "sigma_min": rep["sigma_min"],
        "sigma_max": rep["sigma_max"],
        "j_over_norm_min": rep["j_over_norm_min"],
        "spd": rep["spd"],
        "caveat": rep["caveat"],
        "j_positive": rep["j_positive"],
        "sketch": rep["sketch"],
    }
    return diag, {}


def _cmd_selftest(spec, sys, theta):
    """Reduced-size invariant suite; every entry must pass."""
    checks = {}
    rng = np.random.default_rng(spec.param("seed"))

    s1 = make_interval_system([(-1.0, 1.0)])
    f = random_sqrt_vanishing(s1, modes=12, rng=rng)
    from .single import fht_forward, fht_invert
    g_nodes = fht_forward(f, s1.from_unit(0, cheb1_nodes(16)))
    gpf = PiecewiseFunction.from_smooth_values(s1, [np.real(g_nodes)], weighted=False)
    back = fht_invert(gpf)
    xs = np.linspace(-0.95, 0.95, 21)
    checks["single_roundtrip"] = _check(
        float(np.max(np.abs(back(xs) - f(xs)))), 1e-8)

    s2 = make_interval_system([(-2.0, -1.0), (1.0, 2.0)])
    th2 = ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])
    phi0 = random_sqrt_vanishing(s2, modes=10, rng=rng)
    psi = forward_map(th2, phi0)
    res = solve_phi(th2, psi, size=48)
    x2 = np.concatenate([s2.from_unit(j, xs) for j in range(2)])
    checks["spd_roundtrip"] = _check(
        float(np.max(np.abs(res.phi(x2) - phi0(x2)))), 1e-6)

    gam = build_gamma(s2, th2, lam=1.0, size=48)
    pts = np.concatenate([s2.from_unit(j, np.linspace(-0.9, 0.9, 8))
                          for j in range(2)])
    checks["gamma_jump"] = _check(gam.jump_residual(pts), 1e-7)

    sd = build_spectral_data(s1)
    grid = TGrid(npoints=2048, dt=1.0 / 32.0)
    gu = uniform_forward(sd, f, grid)
    checks["uniform_vs_single"] = _check(
        float(np.max(np.abs(gu(xs) - fht_forward(f, xs).real))), 1e-6)

    diag = {"checks": checks, "all_pass": all(v["pass"] for v in checks.values())}
    return diag, {}
