"""Command-line surface: ingestion, kernel evaluation, scans, verification.

Subcommands: ingest, kernel, gram, ratio-scan, sym-scan, verify.
Exit codes: 0 pass, 1 suite failure (a scan summary outside its limit or
a flagged row), 2 usage/config error.  Tables are CSV with 12
significant digits; reports are JSON.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields
from itertools import product
from typing import Optional

import numpy as np

from .forms import (CuspFormBasis, GramSingular, QuadratureDomain,
                    QuadratureNotConverged, delta_form, load_forms,
                    model_basis, orthonormal_basis, petersson_gram, save_forms)
from .groups import DEFAULT_BUDGET, BudgetExceeded, group_by_name
from .kernel import bergman_kernel_diagonal, parabolic_term_bound
from .metric import (BasisSource, ErrorBoundExceeded, KernelVanishes,
                     PoincareSource, RATIO_LIMIT, fd_log_ratio, grid_points,
                     ratio_parts, ratio_scan)
from .symprod import fs_form_direct_oracle, fs_form_formula, volume_ratio_scan
from .uhp import DomainError, UhpPoint

FMT = "%.12g"


class ConfigError(ValueError):
    pass


# how a flag's string becomes its field's value; other fields keep the string
_FLAG_TYPES = {"int": int, "float": float}


@dataclass
class RunConfig:
    group: str = "modular"
    forms: Optional[str] = None
    k: str = "6"
    grid: str = "-0.45,0.45,0.5,4.0,8,8"
    tuples: Optional[str] = None
    d: int = 1
    budget: int = DEFAULT_BUDGET
    z: str = "0.0,1.0"
    suite: Optional[str] = None
    out: Optional[str] = None
    tol: float = 1e-5

    @classmethod
    def from_argv(cls, argv) -> tuple:
        """The command and config of a command line; (None, None) on --help.

        One command from COMMANDS and one ``--<field>`` per field
        (underscores as dashes), each as ``--name value`` or
        ``--name=value``.  A repeated flag keeps its last value; a value
        may begin with ``-`` but not with ``--``.
        """
        known = {"--" + f.name.replace("_", "-"): f for f in fields(cls)}
        command, cfg = None, cls()
        args = iter(argv)
        for arg in args:
            if arg in ("-h", "--help"):
                return None, None
            if not arg.startswith("-"):
                if command is not None:
                    raise ConfigError(f"unexpected argument {arg!r} after "
                                      f"command {command!r}")
                if arg not in COMMANDS:
                    raise ConfigError(f"unknown command {arg!r}; choose "
                                      f"from {', '.join(COMMANDS)}")
                command = arg
                continue
            flag, eq, value = arg.partition("=")
            if flag not in known:
                raise ConfigError(f"unknown flag {flag}")
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("--"):
                    raise ConfigError(f"{flag} needs a value")
            f = known[flag]
            try:
                setattr(cfg, f.name, _FLAG_TYPES.get(f.type, str)(value))
            except ValueError:
                raise ConfigError(f"{flag} must be {f.type}, "
                                  f"got {value!r}") from None
        if command is None:
            raise ConfigError(f"missing command; choose from "
                              f"{', '.join(COMMANDS)}")
        if cfg.budget < 1:
            raise ConfigError(f"--budget must be at least 1, got {cfg.budget}")
        if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
            raise ConfigError(
                f"--tol must be positive and finite, got {cfg.tol}")
        return command, cfg

    def k_values(self):
        try:
            ks = [int(t) for t in str(self.k).split(",") if t]
        except ValueError as exc:
            raise ConfigError(f"bad k list {self.k!r}") from exc
        if not ks:
            raise ConfigError(f"--k {self.k!r} lists no weight")
        for i, k in enumerate(ks):
            if k in ks[:i]:
                raise ConfigError(f"--k {self.k!r} repeats weight {k}")
        return ks

    def point(self) -> UhpPoint:
        try:
            x, y = (float(t) for t in self.z.split(","))
            return UhpPoint(x, y)
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"bad point {self.z!r}: {exc}") from exc

    def grid_spec(self):
        try:
            x0, x1, y0, y1, nx, ny = (float(t) for t in self.grid.split(","))
            counts = int(nx), int(ny)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad grid {self.grid!r}") from exc
        if counts != (nx, ny):
            raise ConfigError(f"--grid {self.grid!r}: nx and ny must be whole "
                              f"numbers")
        nx, ny = counts
        if min(nx, ny) < 1:
            raise ConfigError(f"--grid {self.grid!r}: nx and ny must be at "
                              f"least 1")
        return grid_points(x0, x1, y0, y1, nx, ny)

    def forms_path(self) -> str:
        """The --forms file, which must be given and exist."""
        if self.forms is None:
            raise ConfigError("this command needs --forms")
        if not os.path.exists(self.forms):
            raise ConfigError(f"forms file not found: {self.forms}")
        return self.forms

    def raw_basis(self) -> CuspFormBasis:
        """The --forms file's basis with its Petersson Gram; a quadrature
        that does not converge is an error naming the file."""
        raw = CuspFormBasis(forms=load_forms(self.forms_path()))
        try:
            petersson_gram(raw, QuadratureDomain())
        except QuadratureNotConverged as exc:
            raise DomainError(f"{self.forms}: {exc}") from None
        return raw

    def basis(self) -> CuspFormBasis:
        """The --forms file's basis, orthonormalized; a singular Gram is
        an error naming the file."""
        try:
            return orthonormal_basis(self.raw_basis())
        except GramSingular as exc:
            raise DomainError(f"{self.forms}: {exc}") from None

    def check_weight(self, basis: CuspFormBasis):
        """Refuse a --k list that asks for a weight the forms do not have."""
        for k in self.k_values():
            if k != basis.k:
                raise ConfigError(f"forms have k={basis.k}, requested {k}")


def _emit(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(text: str) -> str:
    """A CSV text cell, quoted (inner quotes doubled) when it holds a
    comma, a double quote or a line break, as RFC 4180 asks."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# Subcommands

def cmd_ingest(cfg: RunConfig) -> int:
    forms = load_forms(cfg.forms_path())
    basis = CuspFormBasis(forms=forms)
    report = {
        "forms": len(forms),
        "weight": basis.weight,
        "labels": [f.label for f in forms],
        "coefficients": [f.truncation_length for f in forms],
    }
    if cfg.out:
        save_forms(forms, cfg.out)
        report["written"] = cfg.out
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0


def cmd_kernel(cfg: RunConfig) -> int:
    group = group_by_name(cfg.group)
    z = cfg.point()
    text = ""
    for k in cfg.k_values():
        ev = bergman_kernel_diagonal(
            PoincareSource(group, k, cfg.budget).cosets(z), z, k)
        if not ev.tail_estimate <= cfg.tol * abs(ev.value_diagonal):
            raise ErrorBoundExceeded(
                f"k={k} at z={z.z}: y^2k B {ev.value_diagonal:.12g} +- "
                f"{ev.tail_estimate:.3g} exceeds tol {cfg.tol:g}")
        doc = {
            "group": cfg.group, "k": k, "z": [z.x, z.y],
            "route": "poincare",
            "value_diagonal": float(FMT % ev.value_diagonal),
            "identity_part": float(FMT % ev.identity_part),
            "parabolic_part": float(FMT % ev.parabolic_part),
            "rest_part": float(FMT % ev.rest_part),
            "terms_used": ev.terms_used,
            "tail_estimate": float(FMT % ev.tail_estimate),
        }
        text += json.dumps(doc, indent=2) + "\n"
    _emit(text, cfg.out)
    return 0


def cmd_gram(cfg: RunConfig) -> int:
    raw = cfg.raw_basis()
    line = "%s,%s," + FMT + "," + FMT + "\n"
    _emit("form_i,form_j,re,im\n" + "".join(
        line % (_cell(str(fi.label)), _cell(str(fj.label)),
                raw.gram[i, j].real, raw.gram[i, j].imag)
        for i, fi in enumerate(raw.forms) for j, fj in enumerate(raw.forms))
        + "# refinement_change=%.3g\n" % raw.gram_change, cfg.out)
    return 0


def cmd_ratio_scan(cfg: RunConfig) -> int:
    grid = cfg.grid_spec()
    if cfg.forms:
        basis = cfg.basis()
        cfg.check_weight(basis)
        route, sources = "basis", [BasisSource(basis)]
    else:
        group = group_by_name(cfg.group)
        route = "poincare"
        sources = [PoincareSource(group, k, cfg.budget)
                   for k in cfg.k_values()]
    tables, summaries = ratio_scan(sources, grid, tol=cfg.tol)
    xs, ys = [z.x for z in grid], [z.y for z in grid]
    regions = ("CompactPart", "CuspNeighborhood")
    text = ("k,x,y,region,route,ratio,err,ratio_over_k2,bound,bound_ok,"
            "error\n")
    for t in tables:
        # one template per weight: k and the route are fixed in it
        line = (f"{t.k},{FMT},{FMT},%s,{route},{FMT},%.3g,{FMT},{FMT},%d,"
                f"%s\n")
        text += "".join(line % row for row in zip(
            xs, ys, [regions[c] for c in t.cusp.tolist()], t.ratio.tolist(),
            t.error_bound.tolist(), t.ratio_over_k2.tolist(),
            t.bound.tolist(), t.bound_ok.tolist(),
            [_cell(e) if e else "" for e in t.errors]))
    for s in summaries:
        text += ("# k=%d sup_ratio_over_k2=" + FMT + " limit=" + FMT
                 + " flagged=%d within=%s\n") % (
                     s.k, s.sup, s.limit, s.flagged, s.within_limit)
    _emit(text, cfg.out)
    return 0 if all(s.within_limit and not s.flagged for s in summaries) else 1


def _load_tuples(cfg: RunConfig) -> np.ndarray:
    """The scan's tuples as a T x d complex array, row t tuple t."""
    if cfg.d < 1:
        raise ConfigError(f"--d must be at least 1, got {cfg.d}")
    if cfg.tuples and os.path.exists(cfg.tuples):
        with open(cfg.tuples) as fh:
            lines = [(n, s) for n, s in enumerate(
                (line.strip() for line in fh), 1) if s]
        if not lines:
            raise ConfigError(f"no tuples in {cfg.tuples}")
        text = ",".join(s for _, s in lines)
        try:
            raw = np.array(json.loads("[" + text + "]"))
        except ValueError:
            raw = np.zeros(0)
        # One parse of the whole file.  A line ending in "]]" ends a tuple,
        # as nothing in a T x d x 2 array nests deeper than a point; numpy
        # reads JSON booleans as numbers.  On doubt, name the first bad line.
        if not (raw.dtype.kind in "if" and raw.shape == (len(lines), cfg.d, 2)
                and all(s.endswith("]]") for _, s in lines)
                and "true" not in text and "false" not in text
                and np.isfinite(raw).all() and (raw[..., 1] > 0).all()):
            for lineno, line in lines:
                try:
                    points = json.loads(line)
                    for p in points:  # conversion errors first, as before
                        UhpPoint(float(p[0]), float(p[1]))
                    for p in points:
                        if (type(p) is not list or len(p) != 2
                                or not {type(c) for c in p} <= {int, float}):
                            raise ValueError(
                                f"point {json.dumps(p)} is not two numbers")
                except (ValueError, TypeError, LookupError,
                        OverflowError) as exc:
                    raise ConfigError(
                        f"{cfg.tuples}:{lineno}: bad tuple: {exc}") from exc
                if len(points) != cfg.d:
                    raise ConfigError(
                        f"{cfg.tuples}:{lineno}: tuple has {len(points)} "
                        f"points, --d is {cfg.d}")
        # every line is good (an integer past int64 made an object array)
        return raw.astype(float).view(complex)[..., 0]
    if cfg.tuples:
        raise ConfigError(f"tuples file not found: {cfg.tuples}")
    # Cartesian power of the grid
    base = [p.z for p in cfg.grid_spec()]
    if len(set(base)) < cfg.d:
        raise ConfigError(f"--grid {cfg.grid!r} has {len(set(base))} distinct "
                          f"points, fewer than --d {cfg.d}")
    return np.array([tup for tup in product(base, repeat=cfg.d)
                     if len(set(tup)) == cfg.d])


def cmd_sym_scan(cfg: RunConfig) -> int:
    basis = cfg.basis()
    pts = _load_tuples(cfg)
    cfg.check_weight(basis)
    t, s = volume_ratio_scan(basis, pts)
    # x_1, y_1, ..., x_d, y_d as columns
    coords = [c for z in pts.T for c in (z.real.tolist(), z.imag.tolist())]
    tuple_cell = ";".join([f"{FMT}+{FMT}i"] * pts.shape[1])
    # one template: k and the route are fixed in it
    line = f"{t.k},{tuple_cell},formula,{FMT},{FMT},%d,%s\n"
    text = "k,tuple,route,ratio,ratio_over_k2d,degenerate,error\n" + "".join(
        line % row for row in zip(
            *coords, t.ratio.tolist(), t.ratio_over_k2d.tolist(),
            t.degenerate.tolist(), [_cell(e) if e else "" for e in t.errors]))
    text += (f"# k=%d d=%d sup={FMT} limit={FMT} flagged=%d within=%s\n"
             % (s.k, pts.shape[1], s.sup, s.limit, s.flagged, s.within_limit))
    _emit(text, cfg.out)
    return 0 if s.within_limit and not s.flagged else 1


# ---------------------------------------------------------------------------
# Verification suites

def _delta_basis(cfg: RunConfig) -> CuspFormBasis:
    """The --forms basis, or Delta without it; the suites need k >= 2."""
    if cfg.forms:
        basis = cfg.basis()
        if basis.k < 2:
            raise DomainError("k must be >= 2")
        return basis
    raw = CuspFormBasis(forms=[delta_form()])
    petersson_gram(raw, QuadratureDomain())
    return orthonormal_basis(raw)


def _basis_ratios(basis: CuspFormBasis, grid):
    """The basis route's ratios and corrections at the grid points, as
    lists; a kernel value of at most 1e-300 refuses the suite."""
    cols = BasisSource(basis).bundles(grid)
    for z, value in zip(grid, cols.value.tolist()):
        if value <= 1e-300:
            raise KernelVanishes(f"kernel value {value} at {z}")
    ratio, corr, _ = ratio_parts(cols, basis.k)
    return ratio.tolist(), corr.tolist()


def suite_kernel_oracle(cfg: RunConfig):
    group = group_by_name(cfg.group)
    basis = _delta_basis(cfg)
    k = basis.k
    source = PoincareSource(group, k, cfg.budget)
    worst = 0.0
    points = [UhpPoint(0.0, 1.0), UhpPoint(0.5, math.sqrt(3) / 2)]
    values = BasisSource(basis).bundles(points).value.tolist()
    for z, value in zip(points, values):
        ev = bergman_kernel_diagonal(source.cosets(z), z, k)
        ref = value * z.y ** (2 * k)
        worst = max(worst, abs(ev.value_diagonal - ref) / abs(ref))
    return worst <= cfg.tol, {"max_rel_deviation": worst}, {"rel": cfg.tol}


def suite_lemma4(cfg: RunConfig):
    basis = _delta_basis(cfg)
    src = BasisSource(basis)
    grid = grid_points(-0.4, 0.4, 0.8, 2.4, 5, 5)
    worst = 0.0
    for z, r1 in zip(grid, _basis_ratios(basis, grid)[0]):
        r2 = fd_log_ratio(src, z)
        worst = max(worst, abs(r1 - r2) / max(abs(r1), 1e-12))
    return worst <= cfg.tol, {"max_two_route_rel": worst}, {"rel": cfg.tol}


def suite_prop3(cfg: RunConfig):
    group = group_by_name("translations")
    worst = -math.inf
    ok = True
    for k in (3, 6, 10):
        source = PoincareSource(group, k, cfg.budget)
        for z in grid_points(-0.4, 0.4, 0.7, 2.5, 5, 4):
            ev = bergman_kernel_diagonal(source.cosets(z), z, k)
            alpha = ev.value_diagonal - ev.identity_part
            bound = parabolic_term_bound(z.y, k)
            ok = ok and abs(alpha) <= bound
            worst = max(worst, abs(alpha) - bound)
    return ok, {"max_alpha_minus_bound": worst}, {"margin": 0.0}


def suite_prop9(cfg: RunConfig):
    basis = _delta_basis(cfg)
    if not basis.coefficients[:, 0].any():
        raise DomainError(f"{cfg.forms}: sum |a_{{j,1}}|^2 vanishes")
    _, corr = _basis_ratios(basis, [UhpPoint(0.1, y) for y in (4.0, 6.0, 8.0)])
    betas = [abs(c) for c in corr]
    if max(betas) < 1e-12:
        return True, {"betas": betas, "degenerate_basis": True}, {"abs": 1e-12}
    decreasing = betas[0] >= betas[1] >= betas[2]
    envs = [y * y * math.exp(-2 * math.pi * y) for y in (4.0, 6.0, 8.0)]
    quotients = [b / e for b, e in zip(betas, envs)]
    spread = max(quotients) / max(min(quotients), 1e-300)
    return decreasing and spread <= 4.0, \
        {"betas": betas, "envelope_quotients": quotients}, {"spread": 4.0}


def suite_thm10(cfg: RunConfig):
    grid = grid_points(-0.45, 0.45, 0.4, 5.0, 20, 20)
    _, summaries = ratio_scan([BasisSource(_delta_basis(cfg))], grid,
                              tol=cfg.tol)
    s = summaries[0]
    at = None if s.sup_index is None else grid[s.sup_index]
    return s.within_limit, \
        {"sup_ratio_over_k2": s.sup,
         "sup_point": None if at is None else [at.x, at.y]}, \
        {"limit": RATIO_LIMIT}


def suite_sym(cfg: RunConfig):
    rng = np.random.default_rng(20260824)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(3, 7))
        coef = rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))
        basis = model_basis(2 * k, coef.tolist())
        zs = [UhpPoint(float(rng.uniform(-0.3, 0.3)),
                       float(rng.uniform(0.7, 1.6))) for _ in range(2)]
        a = fs_form_formula(basis, zs, k).fs_volume_ratio
        b = fs_form_direct_oracle(basis, zs, k).fs_volume_ratio
        worst = max(worst, abs(a - b) / max(abs(a), 1e-12))
    return worst <= 1e-8, {"max_two_route_rel": worst}, {"rel": 1e-8}


SUITES = {
    "kernel-oracle": suite_kernel_oracle,
    "lemma4": suite_lemma4,
    "prop3": suite_prop3,
    "prop9": suite_prop9,
    "thm10": suite_thm10,
    "sym": suite_sym,
}


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; "
                          f"choose from {sorted(SUITES)}")
    passed, metrics, tolerances = SUITES[cfg.suite](cfg)
    report = {"suite": cfg.suite, "pass": bool(passed),
              "metrics": _round_doc(metrics), "tolerances": tolerances}
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0 if passed else 1


def _round_doc(doc):
    if isinstance(doc, float):
        return float(FMT % doc)
    if isinstance(doc, list):
        return [_round_doc(v) for v in doc]
    if isinstance(doc, dict):
        return {k: _round_doc(v) for k, v in doc.items()}
    return doc


# ---------------------------------------------------------------------------
# Command line

def usage() -> str:
    """The --help text: the commands and every flag with its default."""
    lines = ["usage: bergman COMMAND [--FLAG VALUE ...]",
             "",
             "Bergman kernels and metric ratios on hyperbolic surfaces.",
             "",
             "commands: " + ", ".join(COMMANDS),
             "",
             "flags, as --flag VALUE or --flag=VALUE:"]
    for f in fields(RunConfig):
        metavar = _FLAG_TYPES.get(f.type, str).__name__.upper()
        flag = f"  --{f.name.replace('_', '-')} {metavar}"
        lines.append(flag.ljust(22) + f"default {f.default!r}")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "ingest": cmd_ingest,
    "kernel": cmd_kernel,
    "gram": cmd_gram,
    "ratio-scan": cmd_ratio_scan,
    "sym-scan": cmd_sym_scan,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        command, cfg = RunConfig.from_argv(
            sys.argv[1:] if argv is None else argv)
        if command is None:
            sys.stdout.write(usage())
            return 0
        return COMMANDS[command](cfg)
    except (ConfigError, DomainError, BudgetExceeded,
            ErrorBoundExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
