"""Command line front end.

Subcommands: bounds (constant tables), simulate (norm moments), verify-clt,
verify-bounds, verify-superstrong (statistical audits), tail (Chebyshev
tables). Every run writes a JSON report with the fully resolved configuration,
a hash of it, and the seed that was used.

Each subcommand declares its config keys once, in a table of Key rows. The
parser, the unknown-key check, the flag merge, the type check and the defaults
all come from that table; handlers read the checked, defaulted values.

Exit codes: 0 success, 1 a statistical verification failed, 2 configuration or
input error, or a run too large for memory. Non-finite numbers are encoded in
reports as the strings "inf", "-inf" and "nan" so the JSON stays standard.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from typing import Callable, Dict, NamedTuple, Optional, Tuple

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
from .limitlaw import DegenerateCovarianceError, LimitField, factorize_covariance, limit_covariance
from .mixing import MDependent, MixingProfile, profile_from_dict, profile_to_dict
from .montecarlo import replicate_norms, summarize_norm_powers, write_norms_csv
from .verify import verify_clt, verify_moment_bound, verify_superstrong


class ConfigError(Exception):
    """Bad configuration: unknown keys, missing values, wrong types, malformed structures."""


def _int(name: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name!r} must be an integer, not {value!r}")
    return value


def _nonnegative_int(name: str, value) -> int:
    value = _int(name, value)
    if value < 0:
        raise ConfigError(f"{name!r} must be nonnegative, not {value}")
    return value


def _float(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name!r} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name!r} is too large for a float") from None


def _instance(name: str, value, cls: type, what: str):
    if not isinstance(value, cls):
        raise ConfigError(f"{name!r} must be {what}, not {type(value).__name__}")
    return value


def _floats(name: str, value) -> list:
    return [_float(name, v) for v in (value if isinstance(value, list) else [value])]


def _ints(name: str, value) -> list:
    return [_int(name, v) for v in _instance(name, value, list, "a list of integers")]


def _profile(name: str, value, kind: str) -> MixingProfile:
    """Profile from config or flag: an object, inline JSON, or (alpha only) the name "iid"."""
    if isinstance(value, str) and value.strip().startswith("{"):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name} is not valid JSON: {exc}") from exc
    if isinstance(value, dict):
        return profile_from_dict(value)
    if value == "iid" and kind == "alpha":
        return MixingProfile(kind=kind, decay=MDependent(0), label="iid")
    if value == "iid":
        raise ConfigError(f'{name}: the shortcut "iid" is for alpha profiles only; as a beta, K_N would be 0')
    raise ConfigError(f'{name} must be an object or inline JSON, or "iid" for an alpha profile')


class Kind(NamedTuple):
    """A config value type: its name, its check (raw JSON value -> typed value), its flag type."""

    name: str
    check: Callable
    arg_type: Optional[Callable] = None
    repeat: bool = False  # the flag may be given more than once, each adding a value


INT = Kind("int", _int, int)
NONNEGATIVE_INT = Kind("nonnegative int", _nonnegative_int, int)
FLOAT = Kind("float", _float, float)
FLOATS = Kind("float or list of floats", _floats, float, repeat=True)
INTS = Kind("list of ints", _ints)
PATH = Kind("path", lambda name, value: _instance(name, value, str, "a path string"))
OBJECT = Kind("object", lambda name, value: _instance(name, value, dict, "an object"))
GRID = Kind("object", lambda name, value: grid_from_config(value))
ALPHA_PROFILE = Kind('"iid" or profile object', lambda name, value: _profile(name, value, "alpha"))
BETA_PROFILE = Kind("profile object", lambda name, value: _profile(name, value, "beta"))


class Key(NamedTuple):
    """One config key of a command; a flagged key is also set by --<key with dashes>."""

    name: str
    kind: Kind
    help: str
    required: bool = False
    default: object = None
    flag: bool = True

    def describe(self) -> str:
        """Kind and default (or "required"), for the help text."""
        if self.required:
            return f"{self.kind.name}, required"
        return f"{self.kind.name}, default {self.default}" if self.default is not None else self.kind.name


# seed, threads and out are always resolved into the config (out is dropped
# from the report), so a report records the seed and threads it ran with
COMMON_KEYS = (
    Key("seed", INT, "root seed, noted in the report", default=0),
    Key("threads", NONNEGATIVE_INT, "accepted and recorded; does not change the work or any result", default=1),
    Key("out", PATH, "report path", default="report.json"),
)
_SAMPLED = (
    Key("field", OBJECT, 'field: {"basis": ..., "driver": ...}', required=True, flag=False),
    Key("grid", GRID, '{"uniform": N} or {"custom": {"points": [...], "weights": [...]}}',
        required=True, flag=False),
    Key("reps", INT, "replications per n", required=True),
)
_SCHEDULED = _SAMPLED + (Key("n_schedule", INTS, "sample sizes n, by default 16, 32, ..., 4096", flag=False),)


def _sanitize(obj):
    """Make a structure JSON-safe: dataclasses to dicts, inf/nan to strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _sanitize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _sanitize(obj.tolist())
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


def _resolve(command: str, args: argparse.Namespace) -> Tuple[dict, argparse.Namespace, bool]:
    """Merged config as given (reported and hashed), checked values, and whether the seed defaulted."""
    keys = COMMON_KEYS + COMMANDS[command].keys
    config = _load_config(args.config)
    unknown = set(config) - {key.name for key in keys}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    for key in keys:
        value = getattr(args, key.name, None)
        if value is not None:
            config[key.name] = value
    seed_defaulted = "seed" not in config
    for key in COMMON_KEYS:
        config.setdefault(key.name, key.default)
    values = {}
    for key in keys:
        if key.name in config:
            values[key.name] = key.kind.check(key.name, config[key.name])
        elif key.required:
            raise ConfigError(f"{command} needs {key.name!r} (config key or flag)")
        else:
            values[key.name] = key.default
    return config, argparse.Namespace(**values), seed_defaulted


def _options(c: argparse.Namespace, *names: str) -> dict:
    """Keyword arguments for a library call, read from the keys of the same names."""
    return {name: getattr(c, name) for name in names}


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.12g}"


def _table(rows) -> list:
    width = max(len(label) for label, _ in rows)
    return [f"{label:<{width}} : {text}" for label, text in rows]


def _cmd_bounds(c: argparse.Namespace) -> Tuple[dict, int, list]:
    s = effective_even_order(c.s)
    a = utev_a(s)
    chk = ku_check(s)
    crossover = ku_crossover()
    first = f" (first holds at s = {crossover})" if crossover is not None else ""
    rows = [("order s", f"{c.s:g}")]
    if s != c.s:
        rows.append(("effective order", f"{s} (odd or fractional order rounded up to even)"))
    rows += [
        ("a_s", str(a.value)),
        ("a_s^(1/s)", _fmt(a.root)),
        ("K_U", _fmt(ku_constant())),
        ("K_U * s", _fmt(chk.rhs)),
        ("a_s^(1/s) <= K_U*s", f"{chk.holds}{first}"),
    ]
    results = {
        "s": c.s,
        "effective_s": s,
        "a_s": a.value,
        "a_s_root": a.root,
        "ku_constant": ku_constant(),
        "ku_check": chk,
        "ku_crossover": crossover,
    }
    if c.profile is None and (c.v is not None or c.sup_v_norm is not None or c.y is not None):
        raise ConfigError("v / sup_v_norm / y need a mixing 'profile'")
    if c.profile is not None:
        v = c.v if c.v is not None else float(2 * s)
        report = z_value(c.profile, s, v)
        rows.append((f"Z(s={s}, v={v:g})", _fmt(report.z_value)))
        results["profile"] = profile_to_dict(c.profile)
        results["z"] = report
        if c.sup_v_norm is not None:
            w = lp_moment_bound(c.profile, s, v, c.sup_v_norm)
            rows.append(("W = Z^s * I^(s/v)", _fmt(w)))
            results["sup_v_norm"] = c.sup_v_norm
            results["w"] = w
            if c.y is not None:
                tail = chebyshev_tail(w, s, c.y)
                for y, q in zip(tail.y, tail.q_bound):
                    rows.append((f"Q({y:g})", f"<= {_fmt(q)}"))
                results["tail"] = tail
        elif c.y is not None:
            raise ConfigError("tail levels 'y' need 'sup_v_norm' to form W first")
    if c.beta_profile is not None:
        k_n = nachapetyan_k(c.beta_profile, max(c.s, 2.0))
        rows.append((f"K_N(s={max(c.s, 2.0):g})", _fmt(k_n)))
        results["beta_profile"] = profile_to_dict(c.beta_profile)
        results["k_n"] = k_n
    return results, 0, _table(rows)


def _cmd_simulate(c: argparse.Namespace) -> Tuple[dict, int, list]:
    spec = field_from_config(c.field, c.grid)
    norms = replicate_norms(spec, c.n, c.p, c.grid, c.reps, c.seed, c.threads)
    est = summarize_norm_powers(norms, c.n, c.s, c.p)
    if c.csv:
        write_norms_csv(c.csv, c.n, c.p, c.s, norms)
    lines = [
        f"E||S_n||^s at n={c.n}, p={c.p:g}, s={c.s:g}: "
        f"{_fmt(est.value)} (99% CI {_fmt(est.ci_low)} .. {_fmt(est.ci_high)})"
    ]
    if est.heavy_tail:
        lines.append("warning: heavy-tailed replicate distribution, CI may be unreliable")
    if c.csv:
        lines.append(f"per-replication norms written to {c.csv}")
    return {"estimate": est, "csv": c.csv}, 0, lines


def _cmd_verify_clt(c: argparse.Namespace) -> Tuple[dict, int, list]:
    if c.limit_covariance_csv is not None and c.limit_covariance_scale is not None:
        raise ConfigError("give limit_covariance_csv or limit_covariance_scale, not both")
    spec = field_from_config(c.field, c.grid)
    base = limit_covariance(spec, c.grid)
    limit_field = base
    injected = None
    if c.limit_covariance_csv is not None:
        cov = np.loadtxt(c.limit_covariance_csv, delimiter=",", ndmin=2)
        limit_field = factorize_covariance(cov)
        injected = f"csv:{c.limit_covariance_csv}"
    elif c.limit_covariance_scale is not None:
        scale = c.limit_covariance_scale
        if not (scale > 0.0 and math.isfinite(scale)):
            raise ConfigError("limit_covariance_scale must be positive and finite")
        # scaling R by c scales its exact factor by sqrt(c): nothing to factor
        limit_field = LimitField(base.factor * math.sqrt(scale))
        injected = f"scale:{scale:g}"
    if c.dump_covariance:
        np.savetxt(c.dump_covariance, base.factor @ base.factor.T, delimiter=",")
    options = _options(c, "significance", "seed", "threads")
    summary = verify_clt(spec, c.n_schedule, c.p, c.grid, c.reps, limit_field=limit_field, **options)
    lines = [
        f"n={v.n:>6}  ks={v.ks_stat:.6f}  p={v.p_value:.4f}  {'pass' if v.passed else 'FAIL'}"
        for v in summary.verdicts
    ]
    if injected:
        lines.append(f"limit law overridden ({injected})")
    lines.append(f"converged: {summary.converged}")
    results = {"summary": summary, "limit_override": injected, "dump_covariance": c.dump_covariance}
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


_AUDIT_OPTIONS = ("n_schedule", "seed", "threads")


def _cmd_verify_bounds(c: argparse.Namespace) -> Tuple[dict, int, list]:
    spec = field_from_config(c.field, c.grid)
    verdict = verify_moment_bound(spec, c.s, c.v, c.grid, c.reps, **_options(c, *_AUDIT_OPTIONS))
    return {"verdict": verdict}, 0 if verdict.satisfied else 1, _bound_lines(verdict)


def _cmd_verify_superstrong(c: argparse.Namespace) -> Tuple[dict, int, list]:
    spec = field_from_config(c.field, c.grid)
    verdict = verify_superstrong(spec, c.beta_profile, c.s, c.reps, c.grid, **_options(c, *_AUDIT_OPTIONS))
    results = {"verdict": verdict, "beta_profile": profile_to_dict(c.beta_profile)}
    return results, 0 if verdict.satisfied else 1, _bound_lines(verdict)


def _cmd_tail(c: argparse.Namespace) -> Tuple[dict, int, list]:
    report = chebyshev_tail(c.w, c.s, c.y)
    lines = [f"Q({y:g}) <= {_fmt(q)}" for y, q in zip(report.y, report.q_bound)]
    return {"tail": report}, 0, lines


class Command(NamedTuple):
    """A subcommand: its help line, its handler, and its keys beyond COMMON_KEYS."""

    help: str
    run: Callable[[argparse.Namespace], Tuple[dict, int, list]]
    keys: Tuple[Key, ...]


COMMANDS: Dict[str, Command] = {
    "bounds": Command("constant and bound tables", _cmd_bounds, (
        Key("s", FLOAT, "moment order", required=True),
        Key("v", FLOAT, "integrability order (> s); the default is twice the even order"),
        Key("profile", ALPHA_PROFILE, 'alpha profile: "iid" or inline JSON'),
        Key("sup_v_norm", FLOAT, "sup-norm integral I, to form W = Z^s * I^(s/v)", flag=False),
        Key("y", FLOATS, "tail levels for Chebyshev bounds from W", flag=False),
        Key("beta_profile", BETA_PROFILE, "beta profile as inline JSON"),
    )),
    "simulate": Command("Monte Carlo moment of the normalized sum norm", _cmd_simulate, _SAMPLED + (
        Key("n", INT, "sample size", required=True),
        Key("p", FLOAT, "L^p norm order", required=True),
        Key("s", FLOAT, "moment power of the norm", default=2.0),
        Key("csv", PATH, "write per-replication norms to this CSV"),
    )),
    "verify-clt": Command("KS-compare finite-n norms with the limit law", _cmd_verify_clt, _SCHEDULED + (
        Key("p", FLOAT, "L^p norm order", required=True),
        Key("significance", FLOAT, "KS test level, in (0, 0.1]", default=0.01),
        Key("limit_covariance_scale", FLOAT, "scale the limit covariance"),
        Key("limit_covariance_csv", PATH, "load the limit covariance from CSV"),
        Key("dump_covariance", PATH, "write the model covariance to CSV"),
    )),
    "verify-bounds": Command("audit the mixing-series moment bound", _cmd_verify_bounds, _SCHEDULED + (
        Key("s", INT, "moment order", required=True),
        Key("v", FLOAT, "integrability order (> s)", required=True),
    )),
    "verify-superstrong": Command("audit the superstrong-mixing bound", _cmd_verify_superstrong, _SCHEDULED + (
        Key("s", FLOAT, "moment order", required=True),
        Key("beta_profile", BETA_PROFILE, "beta profile as inline JSON; beta must not vanish from lag 1",
            required=True),
    )),
    "tail": Command("Chebyshev tail table from a moment bound", _cmd_tail, (
        Key("w", FLOAT, "moment bound W", required=True),
        Key("s", FLOAT, "moment order", required=True),
        Key("y", FLOATS, "tail level, repeatable", required=True),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="cltlab",
        description="Moment bounds and CLT verification for mixing random fields",
    )
    subs = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        rows = [f"  {k.name:<15} {k.help} ({k.describe()})" for k in COMMON_KEYS + command.keys if not k.flag]
        sp = subs.add_parser(
            name,
            help=command.help,
            epilog="\n".join(["config-only keys (set them in the --config file):"] + rows) if rows else None,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for key in COMMON_KEYS + command.keys:
            if key.flag:
                sp.add_argument(
                    "--" + key.name.replace("_", "-"),
                    type=key.kind.arg_type,
                    action="append" if key.kind.repeat else "store",
                    help=f"{key.help} ({key.describe()})",
                )
        sp.add_argument("--config", help="JSON config file; flags override its keys")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        config, values, seed_defaulted = _resolve(args.command, args)
        results, code, lines = COMMANDS[args.command].run(values)
    except DegenerateCovarianceError as exc:
        print(f"limit covariance error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
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
    try:
        with open(values.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if seed_defaulted:
        print("seed defaulted to 0 (pass --seed or the 'seed' config key to vary)")
    print(f"report written to {values.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
