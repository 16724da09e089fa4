"""Command line front end.

Subcommands: bounds (constant tables), simulate (norm moments), verify-clt,
verify-bounds, verify-superstrong (statistical audits), tail (Chebyshev
tables). Every run writes a JSON report with the fully resolved configuration,
a hash of it, and the seed that was used.

Exit codes: 0 success, 1 a statistical verification failed, 2 configuration or
input error. Non-finite numbers are encoded in reports as the strings "inf",
"-inf" and "nan" so the JSON stays standard.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import __version__
from .bounds import (
    chebyshev_tail,
    effective_even_order,
    ku_check,
    ku_constant,
    ku_crossover,
    lp_moment_bound,
    nachapetyan_k,
    utev_a,
    z_value,
)
from .discretize import grid_from_config
from .fieldgen import field_from_config
from .limitlaw import DegenerateCovarianceError, factorize_covariance, limit_covariance
from .mixing import MDependent, MixingProfile, profile_from_dict, profile_to_dict
from .montecarlo import replicate_norms, summarize_norm_powers, write_norms_csv
from .verify import verify_clt, verify_moment_bound, verify_superstrong


class ConfigError(Exception):
    """Bad configuration: unknown keys, missing values, malformed structures."""


_COMMON_KEYS = {"seed", "threads", "out"}

_ALLOWED_KEYS: Dict[str, set] = {
    "bounds": _COMMON_KEYS | {"s", "v", "profile", "sup_v_norm", "y", "beta_profile", "tol"},
    "simulate": _COMMON_KEYS | {"field", "grid", "n", "p", "s", "reps", "csv"},
    "verify-clt": _COMMON_KEYS
    | {
        "field",
        "grid",
        "p",
        "reps",
        "n_schedule",
        "significance",
        "limit_factor",
        "limit_covariance_scale",
        "limit_covariance_csv",
        "dump_covariance",
    },
    "verify-bounds": _COMMON_KEYS
    | {"field", "grid", "s", "v", "reps", "n_schedule", "tol", "sup_mode", "sup_reps"},
    "verify-superstrong": _COMMON_KEYS
    | {"field", "grid", "s", "reps", "n_schedule", "beta_profile", "tol", "sup_mode", "sup_reps"},
    "tail": _COMMON_KEYS | {"w", "s", "y"},
}


def _sanitize(obj):
    """Make a structure JSON-safe: dataclasses to dicts, inf/nan to strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def _config_hash(config: dict) -> str:
    canonical = json.dumps(_sanitize(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


# Flag destination -> config key, per command. Flags override config values.
_FLAG_KEYS: Dict[str, Tuple[str, ...]] = {
    "bounds": ("s", "v", "profile", "beta_profile"),
    "simulate": ("n", "p", "s", "reps", "csv"),
    "verify-clt": (
        "p",
        "reps",
        "significance",
        "limit_covariance_scale",
        "limit_covariance_csv",
        "dump_covariance",
    ),
    "verify-bounds": ("s", "v", "reps"),
    "verify-superstrong": ("s", "reps", "beta_profile"),
    "tail": ("w", "s", "y"),
}


def _resolve(command: str, args: argparse.Namespace) -> Tuple[dict, bool]:
    """Merge config file and flags (flags win); reject unknown config keys."""
    config = _load_config(args.config)
    allowed = _ALLOWED_KEYS[command]
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    for key in _FLAG_KEYS[command] + ("seed", "threads", "out"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            config[key] = value
    seed_defaulted = "seed" not in config
    config.setdefault("seed", 0)
    config.setdefault("threads", 1)
    config.setdefault("out", "report.json")
    return config, seed_defaulted


def _require(config: dict, command: str, key: str):
    if key not in config:
        raise ConfigError(f"{command} needs {key!r} (config key or flag)")
    return config[key]


def _profile_arg(value, kind: str) -> MixingProfile:
    """Profile from config or flag: an object, inline JSON, or the name "iid"."""
    if isinstance(value, str) and value.strip().startswith("{"):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"profile is not valid JSON: {exc}") from exc
    if value == "iid":
        return MixingProfile(kind=kind, decay=MDependent(0), label="iid")
    if isinstance(value, dict):
        return profile_from_dict(value)
    raise ConfigError('profile must be an object, inline JSON, or the shortcut "iid"')


def _field_and_grid(config: dict, command: str):
    grid = grid_from_config(_require(config, command, "grid"))
    spec = field_from_config(_require(config, command, "field"), grid)
    return spec, grid


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.12g}"


def _table(rows) -> list:
    width = max(len(label) for label, _ in rows)
    return [f"{label:<{width}} : {text}" for label, text in rows]


def _cmd_bounds(config: dict) -> Tuple[dict, int, list]:
    s_raw = float(_require(config, "bounds", "s"))
    tol = float(config.get("tol", 1e-10))
    s = effective_even_order(s_raw)
    a = utev_a(s)
    chk = ku_check(s)
    crossover = ku_crossover()
    rows = [("order s", f"{s_raw:g}")]
    if s != s_raw:
        rows.append(("effective order", f"{s} (odd or fractional order rounded up to even)"))
    rows += [
        ("a_s", str(a.value)),
        ("a_s^(1/s)", _fmt(a.root)),
        ("K_U", _fmt(ku_constant())),
        ("K_U * s", _fmt(chk.rhs)),
        (
            "a_s^(1/s) <= K_U*s",
            f"{chk.holds}"
            + (f" (first holds at s = {crossover})" if crossover is not None else ""),
        ),
    ]
    results = {
        "s": s_raw,
        "effective_s": s,
        "a_s": a.value,
        "a_s_root": a.root,
        "ku_constant": ku_constant(),
        "ku_check": chk,
        "ku_crossover": crossover,
    }
    profile_cfg = config.get("profile")
    if profile_cfg is None and ("v" in config or "sup_v_norm" in config or "y" in config):
        raise ConfigError("v / sup_v_norm / y need a mixing 'profile'")
    if profile_cfg is not None:
        profile = _profile_arg(profile_cfg, "alpha")
        v = float(config.get("v", 2 * s))
        report = z_value(profile, s, v, tol=tol)
        rows.append((f"Z(s={s}, v={v:g})", _fmt(report.z_value)))
        results["profile"] = profile_to_dict(profile)
        results["z"] = report
        if "sup_v_norm" in config:
            integral = float(config["sup_v_norm"])
            w = lp_moment_bound(profile, s, v, integral, tol)
            rows.append(("W = Z^s * I^(s/v)", _fmt(w)))
            results["sup_v_norm"] = integral
            results["w"] = w
            if "y" in config:
                ys = config["y"] if isinstance(config["y"], list) else [config["y"]]
                tail = chebyshev_tail(w, s, [float(y) for y in ys])
                for y, q in zip(tail.y, tail.q_bound):
                    rows.append((f"Q({y:g})", f"<= {_fmt(q)}"))
                results["tail"] = tail
        elif "y" in config:
            raise ConfigError("tail levels 'y' need 'sup_v_norm' to form W first")
    if "beta_profile" in config:
        beta = _profile_arg(config["beta_profile"], "beta")
        k_n = nachapetyan_k(beta, max(s_raw, 2.0), tol)
        rows.append((f"K_N(s={max(s_raw, 2.0):g})", _fmt(k_n)))
        results["beta_profile"] = profile_to_dict(beta)
        results["k_n"] = k_n
    return results, 0, _table(rows)


def _cmd_simulate(config: dict) -> Tuple[dict, int, list]:
    spec, grid = _field_and_grid(config, "simulate")
    n = int(_require(config, "simulate", "n"))
    p = float(_require(config, "simulate", "p"))
    reps = int(_require(config, "simulate", "reps"))
    s = float(config.get("s", 2.0))
    norms = replicate_norms(spec, n, p, grid, reps, config["seed"], config["threads"])
    est = summarize_norm_powers(norms, n, s, p)
    csv_path = config.get("csv")
    if csv_path:
        write_norms_csv(csv_path, n, p, s, norms)
    lines = [
        f"E||S_n||^s at n={n}, p={p:g}, s={s:g}: "
        f"{_fmt(est.value)} (99% CI {_fmt(est.ci_low)} .. {_fmt(est.ci_high)})"
    ]
    if est.heavy_tail:
        lines.append("warning: heavy-tailed replicate distribution, CI may be unreliable")
    if csv_path:
        lines.append(f"per-replication norms written to {csv_path}")
    results = {"estimate": est, "csv": csv_path}
    return results, 0, lines


def _cmd_verify_clt(config: dict) -> Tuple[dict, int, list]:
    spec, grid = _field_and_grid(config, "verify-clt")
    p = float(_require(config, "verify-clt", "p"))
    reps = int(_require(config, "verify-clt", "reps"))
    schedule = config.get("n_schedule")
    base = limit_covariance(spec, grid)
    limit_field = base
    injected = None
    if "limit_covariance_csv" in config:
        cov = np.loadtxt(config["limit_covariance_csv"], delimiter=",", ndmin=2)
        limit_field = factorize_covariance(cov)
        injected = f"csv:{config['limit_covariance_csv']}"
    elif "limit_covariance_scale" in config:
        scale = float(config["limit_covariance_scale"])
        if not (scale > 0.0 and math.isfinite(scale)):
            raise ConfigError("limit_covariance_scale must be positive and finite")
        limit_field = factorize_covariance(base.covariance * scale)
        injected = f"scale:{scale:g}"
    dump = config.get("dump_covariance")
    if dump:
        np.savetxt(dump, base.covariance, delimiter=",")
    summary = verify_clt(
        spec,
        schedule,
        p,
        grid,
        reps,
        significance=float(config.get("significance", 0.01)),
        seed=config["seed"],
        threads=config["threads"],
        limit_factor=int(config.get("limit_factor", 4)),
        limit_field=limit_field,
    )
    lines = [
        f"n={v.n:>6}  ks={v.ks_stat:.6f}  p={v.p_value:.4f}  {'pass' if v.passed else 'FAIL'}"
        for v in summary.verdicts
    ]
    if injected:
        lines.append(f"limit law overridden ({injected})")
    lines.append(f"converged: {summary.converged}")
    results = {"summary": summary, "limit_override": injected, "dump_covariance": dump}
    return results, 0 if summary.converged else 1, lines


def _bound_lines(verdict) -> list:
    lines = [
        f"theoretical bound : {_fmt(verdict.theoretical)}",
        f"empirical max     : {_fmt(verdict.empirical.value)}"
        f" (CI high {_fmt(verdict.empirical.ci_high)}, at n={verdict.empirical.n};"
        f" sup taken as {verdict.sup_label})",
        f"satisfied         : {verdict.satisfied}",
    ]
    if verdict.vacuous:
        lines.append("note: bound is infinite (divergent series), so vacuously satisfied")
    return lines


def _cmd_verify_bounds(config: dict) -> Tuple[dict, int, list]:
    spec, grid = _field_and_grid(config, "verify-bounds")
    verdict = verify_moment_bound(
        spec,
        int(_require(config, "verify-bounds", "s")),
        float(_require(config, "verify-bounds", "v")),
        grid,
        int(_require(config, "verify-bounds", "reps")),
        n_schedule=config.get("n_schedule"),
        seed=config["seed"],
        threads=config["threads"],
        tol=float(config.get("tol", 1e-10)),
        sup_mode=config.get("sup_mode"),
        sup_reps=int(config.get("sup_reps", 2000)),
    )
    return {"verdict": verdict}, 0 if verdict.satisfied else 1, _bound_lines(verdict)


def _cmd_verify_superstrong(config: dict) -> Tuple[dict, int, list]:
    spec, grid = _field_and_grid(config, "verify-superstrong")
    beta = _profile_arg(_require(config, "verify-superstrong", "beta_profile"), "beta")
    verdict = verify_superstrong(
        spec,
        beta,
        float(_require(config, "verify-superstrong", "s")),
        reps=int(_require(config, "verify-superstrong", "reps")),
        grid=grid,
        n_schedule=config.get("n_schedule"),
        seed=config["seed"],
        threads=config["threads"],
        tol=float(config.get("tol", 1e-10)),
        sup_mode=config.get("sup_mode"),
        sup_reps=int(config.get("sup_reps", 2000)),
    )
    results = {"verdict": verdict, "beta_profile": profile_to_dict(beta)}
    return results, 0 if verdict.satisfied else 1, _bound_lines(verdict)


def _cmd_tail(config: dict) -> Tuple[dict, int, list]:
    w = float(_require(config, "tail", "w"))
    s = float(_require(config, "tail", "s"))
    ys = _require(config, "tail", "y")
    if not isinstance(ys, list):
        ys = [ys]
    report = chebyshev_tail(w, s, [float(y) for y in ys])
    lines = [f"Q({y:g}) <= {_fmt(q)}" for y, q in zip(report.y, report.q_bound)]
    return {"tail": report}, 0, lines


_HANDLERS: Dict[str, Callable[[dict], Tuple[dict, int, list]]] = {
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "verify-clt": _cmd_verify_clt,
    "verify-bounds": _cmd_verify_bounds,
    "verify-superstrong": _cmd_verify_superstrong,
    "tail": _cmd_tail,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--seed", type=int, help="root seed (default 0, noted in the report)")
    sub.add_argument("--threads", type=int, help="worker threads; 0 means all cores")
    sub.add_argument("--out", help="report path (default report.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltlab",
        description="Moment bounds and CLT verification for mixing random fields",
    )
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("bounds", help="constant and bound tables")
    sp.add_argument("--s", type=float, help="moment order")
    sp.add_argument("--v", type=float, help="integrability order (> s)")
    sp.add_argument("--profile", help='alpha profile: "iid" or inline JSON')
    sp.add_argument("--beta-profile", dest="beta_profile", help="beta profile, same forms")

    sp = subs.add_parser("simulate", help="Monte Carlo moment of the normalized sum norm")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--s", type=float, help="moment power of the norm (default 2)")
    sp.add_argument("--reps", type=int)
    sp.add_argument("--csv", help="write per-replication norms to this CSV")

    sp = subs.add_parser("verify-clt", help="KS-compare finite-n norms with the limit law")
    sp.add_argument("--p", type=float)
    sp.add_argument("--reps", type=int)
    sp.add_argument("--significance", type=float)
    sp.add_argument("--limit-covariance-scale", type=float, help="scale the limit covariance")
    sp.add_argument("--limit-covariance-csv", help="load the limit covariance from CSV")
    sp.add_argument("--dump-covariance", help="write the model covariance to CSV")

    sp = subs.add_parser("verify-bounds", help="audit the mixing-series moment bound")
    sp.add_argument("--s", type=int)
    sp.add_argument("--v", type=float)
    sp.add_argument("--reps", type=int)

    sp = subs.add_parser("verify-superstrong", help="audit the superstrong-mixing bound")
    sp.add_argument("--s", type=float)
    sp.add_argument("--reps", type=int)
    sp.add_argument("--beta-profile", dest="beta_profile", help='beta profile: "iid" or inline JSON')

    sp = subs.add_parser("tail", help="Chebyshev tail table from a moment bound")
    sp.add_argument("--w", type=float)
    sp.add_argument("--s", type=float)
    sp.add_argument("--y", type=float, action="append", help="tail level, repeatable")

    for sub in subs.choices.values():
        _add_common(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        config, seed_defaulted = _resolve(args.command, args)
        results, code, lines = _HANDLERS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateCovarianceError as exc:
        print(f"limit covariance error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return 2
    # the report destination is not part of the computation, so the embedded
    # config and its hash stay identical no matter where the report lands
    reported = {k: v for k, v in config.items() if k != "out"}
    report = {
        "command": args.command,
        "version": __version__,
        "config": _sanitize(reported),
        "config_hash": _config_hash(reported),
        "seed": config["seed"],
        "seed_defaulted": seed_defaulted,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": _sanitize(results),
        "exit_code": code,
    }
    out = config["out"]
    try:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if seed_defaulted:
        print("seed defaulted to 0 (pass --seed or the 'seed' config key to vary)")
    print(f"report written to {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
