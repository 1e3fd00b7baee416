"""Command-line surface: ingestion, kernel evaluation, scans, verification.

Subcommands: ingest, kernel, gram, ratio-scan, sym-scan, verify.
Exit codes: 0 pass, 1 suite failure, 2 usage/config error.  Tables are
CSV with 12 significant digits; reports are JSON.  Scan parallelism is
governed by --threads with thread-count-independent output.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .forms import (CuspFormBasis, QuadratureDomain, delta_form, load_forms,
                    model_basis, orthonormal_basis, petersson_gram, save_forms)
from .groups import DEFAULT_C_GAMMA, group_by_name
from .kernel import bergman_kernel_diagonal, parabolic_term_bound
from .metric import (BasisSource, PoincareSource,
                     RATIO_LIMIT, bergman_metric_ratio, fd_log_ratio,
                     grid_points, kernel_derivatives, ratio_scan)
from .symprod import fs_form_direct_oracle, fs_form_formula, volume_ratio_scan
from .uhp import DomainError, UhpPoint

FMT = "%.12g"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    group: str = "modular"
    forms: Optional[str] = None
    k: str = "6"
    grid: str = "-0.45,0.45,0.5,4.0,8,8"
    tuples: Optional[str] = None
    d: int = 1
    c_gamma: float = DEFAULT_C_GAMMA
    c_x: float = 0.0
    bound: float = 150.0
    budget: int = 200_000
    z: str = "0.0,1.0"
    domain: str = "modular"
    suite: Optional[str] = None
    separable: bool = False
    threads: int = 1
    out: Optional[str] = None
    tol: float = 1e-5

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        """JSON config file first, then explicit flags override."""
        cfg = cls()
        doc = {}
        if getattr(args, "config", None):
            if not os.path.exists(args.config):
                raise ConfigError(f"config file not found: {args.config}")
            with open(args.config) as fh:
                doc = json.load(fh)
        names = {f.name for f in fields(cls)}
        for key, value in doc.items():
            if key not in names:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
        for name in names:
            flag = getattr(args, name, None)
            if flag is not None:
                setattr(cfg, name, flag)
        return cfg

    def k_values(self):
        try:
            return [int(t) for t in str(self.k).split(",") if t]
        except ValueError as exc:
            raise ConfigError(f"bad k list {self.k!r}") from exc

    def point(self) -> UhpPoint:
        try:
            x, y = (float(t) for t in self.z.split(","))
            return UhpPoint(x, y)
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"bad point {self.z!r}: {exc}") from exc

    def grid_spec(self):
        try:
            x0, x1, y0, y1, nx, ny = (float(t) for t in self.grid.split(","))
            return grid_points(x0, x1, y0, y1, int(nx), int(ny))
        except ValueError as exc:
            raise ConfigError(f"bad grid {self.grid!r}") from exc

    def basis(self) -> CuspFormBasis:
        if self.forms is None:
            raise ConfigError("this command needs --forms")
        if not os.path.exists(self.forms):
            raise ConfigError(f"forms file not found: {self.forms}")
        raw = CuspFormBasis(forms=load_forms(self.forms))
        raw.gram = petersson_gram(raw, self.quadrature_domain())
        return orthonormal_basis(raw)

    def quadrature_domain(self) -> QuadratureDomain:
        if self.domain == "modular":
            return QuadratureDomain()
        return QuadratureDomain(kind="strip", y0=0.8)


def _emit(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(FMT % v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands

def cmd_ingest(cfg: RunConfig) -> int:
    if cfg.forms is None or not os.path.exists(cfg.forms or ""):
        raise ConfigError(f"forms file not found: {cfg.forms}")
    forms = load_forms(cfg.forms)
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
    for k in cfg.k_values():
        ev = bergman_kernel_diagonal(group, z, k, cfg.bound, cfg.budget)
        doc = {
            "group": cfg.group, "k": k, "z": [z.x, z.y],
            "route": "poincare",
            "value_diagonal": float(FMT % ev.value_diagonal),
            "identity_part": float(FMT % ev.identity_part),
            "parabolic_part": float(FMT % ev.parabolic_part.real),
            "rest_part": float(FMT % ev.rest_part.real),
            "imag_residual": float(FMT % ev.imag_residual),
            "terms_used": ev.truncation.terms_used,
            "tail_estimate": float(FMT % ev.truncation.tail_estimate),
            "exhaustive": ev.truncation.exhaustive,
        }
        _emit(json.dumps(doc, indent=2) + "\n", cfg.out)
    return 0


def cmd_gram(cfg: RunConfig) -> int:
    if cfg.forms is None or not os.path.exists(cfg.forms or ""):
        raise ConfigError(f"forms file not found: {cfg.forms}")
    raw = CuspFormBasis(forms=load_forms(cfg.forms))
    gram = petersson_gram(raw, cfg.quadrature_domain())
    rows = []
    for i, fi in enumerate(raw.forms):
        for j, fj in enumerate(raw.forms):
            rows.append((fi.label, fj.label, gram[i, j].real, gram[i, j].imag))
    _emit(_csv(rows, ["form_i", "form_j", "re", "im"]), cfg.out)
    return 0


def cmd_ratio_scan(cfg: RunConfig) -> int:
    grid = cfg.grid_spec()
    if cfg.forms:
        basis = cfg.basis()
        route = "basis"

        def factory(k):
            if basis.k != k:
                raise ConfigError(f"forms have k={basis.k}, requested {k}")
            return BasisSource(basis)
    else:
        group = group_by_name(cfg.group)
        route = "poincare"

        def factory(k):
            return PoincareSource(group, k, cfg.bound, cfg.budget)

    rows, summaries = ratio_scan(factory, cfg.k_values(), grid,
                                 cfg.c_gamma, cfg.c_x, threads=cfg.threads)
    table = [(r.k, r.z.x, r.z.y, r.region.tag.value, route, r.ratio,
              r.ratio_over_k2, r.bound, int(r.bound_satisfied),
              r.error or "") for r in rows]
    text = _csv(table, ["k", "x", "y", "region", "route", "ratio",
                        "ratio_over_k2", "bound", "bound_ok", "error"])
    for s in summaries:
        text += ("# k=%d sup_ratio_over_k2=" + FMT + " limit=" + FMT
                 + " within=%s\n") % (s.k, s.sup_ratio_over_k2, s.limit,
                                      s.within_limit)
    _emit(text, cfg.out)
    return 0 if all(s.within_limit for s in summaries) else 1


def _load_tuples(cfg: RunConfig):
    if cfg.tuples and os.path.exists(cfg.tuples):
        out = []
        with open(cfg.tuples) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                arr = json.loads(line)
                out.append(tuple(UhpPoint(float(p[0]), float(p[1]))
                                 for p in arr))
        if not out:
            raise ConfigError(f"no tuples in {cfg.tuples}")
        return out
    if cfg.tuples:
        raise ConfigError(f"tuples file not found: {cfg.tuples}")
    # Cartesian power of the grid
    base = cfg.grid_spec()
    from itertools import product
    return [tup for tup in product(base, repeat=cfg.d)
            if len({(p.x, p.y) for p in tup}) == cfg.d]


def cmd_sym_scan(cfg: RunConfig) -> int:
    basis = cfg.basis()

    def basis_by_k(k):
        if basis.k != k:
            raise ConfigError(f"forms have k={basis.k}, requested {k}")
        return basis

    tuples = _load_tuples(cfg)
    rows, summaries = volume_ratio_scan(basis_by_k, tuples, cfg.k_values(),
                                        separable=cfg.separable,
                                        threads=cfg.threads)
    table = []
    for r in rows:
        coords = ";".join(FMT % p.x + "+" + FMT % p.y + "i" for p in r.z)
        table.append((r.k, coords, r.route, r.ratio, r.ratio_over_k2d,
                      int(r.degenerate), r.error or ""))
    text = _csv(table, ["k", "tuple", "route", "ratio", "ratio_over_k2d",
                        "degenerate", "error"])
    for s in summaries:
        text += ("# k=%d d=%d sup=" + FMT + " limit=" + FMT + " within=%s\n") \
            % (s.k, s.d, s.sup_ratio_over_k2d, s.limit, s.within_limit)
    _emit(text, cfg.out)
    return 0 if all(s.within_limit for s in summaries) else 1


# ---------------------------------------------------------------------------
# Verification suites

def _delta_basis(cfg: RunConfig) -> CuspFormBasis:
    if cfg.forms:
        return cfg.basis()
    raw = CuspFormBasis(forms=[delta_form()])
    raw.gram = petersson_gram(raw, QuadratureDomain())
    return orthonormal_basis(raw)


def suite_kernel_oracle(cfg: RunConfig):
    group = group_by_name(cfg.group)
    if cfg.group == "trivial":
        z = cfg.point()
        k = cfg.k_values()[0]
        ev = bergman_kernel_diagonal(group, z, k, cfg.bound, cfg.budget)
        dev = abs(ev.value_diagonal - ev.identity_part)
        return dev == 0.0, {"deviation": dev}, {"deviation": 0.0}
    basis = _delta_basis(cfg)
    k = basis.k
    src = BasisSource(basis)
    worst = 0.0
    points = [UhpPoint(0.0, 1.0), UhpPoint(0.5, math.sqrt(3) / 2)]
    for z in points:
        ev = bergman_kernel_diagonal(group, z, k, cfg.bound, cfg.budget)
        ref = src.weight0_value(z) * z.y ** (2 * k)
        worst = max(worst, abs(ev.value_diagonal - ref) / abs(ref))
    return worst <= cfg.tol, {"max_rel_deviation": worst}, {"rel": cfg.tol}


def suite_lemma4(cfg: RunConfig):
    basis = _delta_basis(cfg)
    src = BasisSource(basis)
    k = basis.k
    worst = 0.0
    for z in grid_points(-0.4, 0.4, 0.8, 2.4, 5, 5):
        r1 = bergman_metric_ratio(kernel_derivatives(src, z, k), z, k,
                                  cfg.c_gamma).ratio
        r2 = fd_log_ratio(src, z, k)
        worst = max(worst, abs(r1 - r2) / max(abs(r1), 1e-12))
    return worst <= cfg.tol, {"max_two_route_rel": worst}, {"rel": cfg.tol}


def suite_prop3(cfg: RunConfig):
    group = group_by_name("translations")
    worst = -math.inf
    ok = True
    for k in (3, 6, 10):
        for z in grid_points(-0.4, 0.4, 0.7, 2.5, 5, 4):
            ev = bergman_kernel_diagonal(group, z, k, cfg.bound, cfg.budget)
            alpha = ev.value_diagonal - ev.identity_part
            bound = parabolic_term_bound(z.y, k)
            ok = ok and abs(alpha) <= bound and ev.truncation.exhaustive
            worst = max(worst, abs(alpha) - bound)
    return ok, {"max_alpha_minus_bound": worst}, {"margin": 0.0}


def suite_prop9(cfg: RunConfig):
    from .metric import cusp_ratio_expansion
    basis = _delta_basis(cfg)
    k = basis.k
    betas = []
    for y in (4.0, 6.0, 8.0):
        s = cusp_ratio_expansion(basis, UhpPoint(0.1, y), k, cfg.c_gamma)
        betas.append(abs(s.correction))
    if max(betas) < 1e-12:
        return True, {"betas": betas, "degenerate_basis": True}, {"abs": 1e-12}
    decreasing = betas[0] >= betas[1] >= betas[2]
    envs = [y * y * math.exp(-2 * math.pi * y) for y in (4.0, 6.0, 8.0)]
    quotients = [b / e for b, e in zip(betas, envs)]
    spread = max(quotients) / max(min(quotients), 1e-300)
    return decreasing and spread <= 4.0, \
        {"betas": betas, "envelope_quotients": quotients}, {"spread": 4.0}


def suite_thm10(cfg: RunConfig):
    basis = _delta_basis(cfg)
    k = basis.k

    def factory(kk):
        return BasisSource(basis)

    grid = grid_points(-0.45, 0.45, 0.4, 5.0, 20, 20)
    _, summaries = ratio_scan(factory, [k], grid, cfg.c_gamma, cfg.c_x,
                              threads=cfg.threads)
    s = summaries[0]
    return s.within_limit, \
        {"sup_ratio_over_k2": s.sup_ratio_over_k2,
         "sup_point": [s.sup_point.x, s.sup_point.y] if s.sup_point else None}, \
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
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergman",
        description="Bergman kernels and metric ratios on hyperbolic surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--group")
        p.add_argument("--forms")
        p.add_argument("--k")
        p.add_argument("--grid")
        p.add_argument("--tuples")
        p.add_argument("--d", type=int)
        p.add_argument("--c-gamma", dest="c_gamma", type=float)
        p.add_argument("--c-x", dest="c_x", type=float)
        p.add_argument("--bound", type=float)
        p.add_argument("--budget", type=int)
        p.add_argument("--z")
        p.add_argument("--domain", choices=["modular", "strip"])
        p.add_argument("--suite")
        p.add_argument("--separable", action="store_const", const=True)
        p.add_argument("--threads", type=int)
        p.add_argument("--out")
        p.add_argument("--tol", type=float)

    for name in ("ingest", "kernel", "gram", "ratio-scan", "sym-scan",
                 "verify"):
        common(sub.add_parser(name))
    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "kernel": cmd_kernel,
    "gram": cmd_gram,
    "ratio-scan": cmd_ratio_scan,
    "sym-scan": cmd_sym_scan,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
