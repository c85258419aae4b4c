"""Command-line frontend.  One JSON document (or CSV for enumerations)
per invocation, diagnostics to stderr; exit 0 on success, 1 on domain
errors, 2 on usage errors.  Identical invocations are byte-identical."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction as Rational

from . import localization as loc
from . import selftest as selftest_mod
from . import tower
from .errors import DomainError
from .haar import CylinderFunction, integrate
from .heisenberg import ChainFamily, HeisenbergContext, HPoint
from .hmodule import BilinearForm

CONFIG_ENV = "MHEIS_CONFIG"


def _emit(obj: dict):
    print(json.dumps(obj))


def _rational(q: Rational) -> str:
    return tower.format_rational(q)


def _load_config(path: str | None) -> dict:
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return config


def _context(args, config: dict) -> HeisenbergContext:
    m = args.m if args.m is not None else config.get("m")
    rank = args.N if args.N is not None else config.get("N")
    b = args.b if args.b is not None else json.dumps(config.get("b"))
    n = args.n if args.n is not None else config.get("n", 6)
    if m is None or rank is None or b in (None, "null"):
        raise DomainError("m, N and b are required (flags or config file)")
    return HeisenbergContext(m=m, rank=rank,
                             form=BilinearForm.from_rows(json.loads(b)),
                             precision=n)


def _point(ctx: HeisenbergContext, text: str) -> HPoint:
    obj = json.loads(text)
    return ctx.point(obj["x"], obj["s"])


def _chain(text: str) -> tower.ChainSpec:
    obj = json.loads(text)
    return tower.ChainSpec.from_json(obj)


def _profile(text: str | None) -> tower.RadiusProfile:
    if text is None:
        return tower.DEFAULT_PROFILE
    return tower.RadiusProfile.from_json(json.loads(text))


# subcommands ---------------------------------------------------------------


def _cmd_dist(args, config):
    chain = _chain(args.chain) if args.chain else tower.ChainSpec.ideal_power(
        args.m if args.m is not None else config.get("m"))
    d = tower.distance(args.x, args.y, chain, _profile(args.profile))
    val = "inf" if d.valuation == tower.INFINITY else d.valuation
    _emit({"valuation": val, "radius": _rational(d.radius)})
    return 0


def _cmd_mul(args, config):
    ctx = _context(args, config)
    _emit(ctx.mul(_point(ctx, args.g), _point(ctx, args.h)).to_json())
    return 0


def _cmd_inv(args, config):
    ctx = _context(args, config)
    _emit(ctx.inv(_point(ctx, args.g)).to_json())
    return 0


def _cmd_conj(args, config):
    ctx = _context(args, config)
    _emit(ctx.conjugate(_point(ctx, args.g), _point(ctx, args.h)).to_json())
    return 0


def _cmd_dilate(args, config):
    ctx = _context(args, config)
    _emit(ctx.dilate(args.r, _point(ctx, args.g)).to_json())
    return 0


def _cmd_member(args, config):
    ctx = _context(args, config)
    verdict = ctx.chain_member(_point(ctx, args.g), ChainFamily(args.family), args.j)
    _emit({"family": args.family, "j": args.j, "member": verdict})
    return 0


def _cmd_cosets(args, config):
    ctx = _context(args, config)
    keys = ctx.coset_digits(ChainFamily(args.family), args.level)
    fmt = args.format or config.get("format", "csv")
    if fmt == "json":
        _emit({"level": args.level, "family": args.family,
               "reps": [ctx.point(xs, s).to_json() for xs, s in keys]})
    else:
        print(",".join([f"x{i + 1}" for i in range(ctx.rank)] + ["s"]))
        for xs, s in keys:
            print(",".join(map(str, (*xs, s))))
    return 0


def _parse_function(ctx, family, level, text: str) -> CylinderFunction:
    if text == "const1":
        return CylinderFunction.constant(ctx, family, level, 1)
    if text.startswith("indicator:"):
        return CylinderFunction.indicator(ctx, family, level,
                                          _point(ctx, text[len("indicator:"):]))
    if text.startswith("@"):
        with open(text[1:]) as fh:
            f = CylinderFunction.from_json(json.load(fh))
        if (f.family, f.level) != (family, level):
            raise DomainError(f"{text[1:]}: family {f.family.value} level {f.level} "
                              f"does not match the flags")
        return f
    raise DomainError(f"unknown function argument {text!r}; "
                      "use const1, indicator:POINT, or @file")


def _cmd_haar(args, config):
    ctx = _context(args, config)
    family = ChainFamily(args.family)
    f = _parse_function(ctx, family, args.level, args.function)
    value = integrate(ctx, f, args.at_level)
    out = {"integral": _rational(value)}
    if args.decimal:
        try:
            out["decimal"] = str(float(value))
        except OverflowError:
            raise DomainError(f"integral {out['integral']} is beyond float range") from None
    _emit(out)
    return 0


def _cmd_check_normal(args, config):
    ctx = _context(args, config)
    _emit(ctx.check_normality(ChainFamily(args.family), args.j, args.level).to_json())
    return 0


def _cmd_check_equiv(args, config):
    rep = tower.check_chain_equivalence(_chain(args.chain_a), _chain(args.chain_b),
                                        args.depth)
    _emit(rep.to_json())
    return 0


def _cmd_frac(args, config):
    ring = loc.BaseRing.from_label(args.ring)
    S = loc.MultSet.from_json(ring, json.loads(args.S))
    def parse(text):
        obj = json.loads(text)
        return loc.Fraction(ring=ring, mult_set=S, num=obj["num"], den=obj["den"])
    if args.op in ("add", "mul"):
        a, b = parse(args.a), parse(args.b)
        out = (loc.frac_add if args.op == "add" else loc.frac_mul)(a, b)
        _emit(out.to_json())
    elif args.op == "eq":
        _emit({"equal": loc.frac_equal(parse(args.a), parse(args.b))})
    elif args.op == "hom":
        _emit(loc.canonical_hom(args.elem, S).to_json())
    elif args.op == "kernel":
        _emit({"witness": loc.kernel_witness(args.elem, S)})
    else:
        raise DomainError(f"unknown frac op {args.op!r}")
    return 0


def _cmd_selftest(args, config):
    return selftest_mod.run()


# parser --------------------------------------------------------------------


def _add_context_flags(p):
    p.add_argument("--m", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--b", help="bilinear matrix as a JSON literal, e.g. [[1]]")
    p.add_argument("--n", type=int, help="working precision (default 6)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mheis",
        description="Exact arithmetic and geometry of m-adic Heisenberg groups.",
    )
    top.add_argument("--config", help=f"JSON defaults file (or ${CONFIG_ENV})")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="ultrametric distance between integers")
    p.add_argument("--m", type=int)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--chain", help="chain JSON (overrides --m)")
    p.add_argument("--profile", help="radius profile JSON")
    p.set_defaults(func=_cmd_dist)

    for name, func, extras in (
        ("mul", _cmd_mul, ("g", "h")),
        ("inv", _cmd_inv, ("g",)),
        ("conj", _cmd_conj, ("g", "h")),
    ):
        p = sub.add_parser(name, help=f"group {name} (points as JSON "
                           '{"x": [..], "s": ..})')
        _add_context_flags(p)
        for flag in extras:
            p.add_argument(f"--{flag}", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("dilate", help="apply the dilation delta_r")
    _add_context_flags(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("member", help="chain-subgroup membership at level j")
    _add_context_flags(p)
    p.add_argument("--g", required=True)
    p.add_argument("--family", choices=["H", "G"], default="G")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("cosets", help="enumerate canonical coset representatives")
    _add_context_flags(p)
    p.add_argument("--family", choices=["H", "G"], default="G")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"])
    p.set_defaults(func=_cmd_cosets)

    p = sub.add_parser("haar", help="exact Haar integral of a cylinder function")
    _add_context_flags(p)
    p.add_argument("--family", choices=["H", "G"], default="G")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--function", required=True,
                   help="const1 | indicator:POINT | @table.json")
    p.add_argument("--at-level", type=int, dest="at_level",
                   help="average over this deeper level (same value)")
    p.add_argument("--decimal", action="store_true",
                   help="include a decimal approximation")
    p.set_defaults(func=_cmd_haar)

    p = sub.add_parser("check-normal", help="normality certificate in G/H_L")
    _add_context_flags(p)
    p.add_argument("--family", choices=["H", "G"], required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_check_normal)

    p = sub.add_parser("check-equiv", help="topological equivalence of two chains")
    p.add_argument("--chain-a", dest="chain_a", required=True)
    p.add_argument("--chain-b", dest="chain_b", required=True)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=_cmd_check_equiv)

    p = sub.add_parser("frac", help="localization arithmetic")
    p.add_argument("--ring", default="Z", help='"Z" or "Z/k"')
    p.add_argument("--S", required=True, help="multiplicative set JSON")
    p.add_argument("--op", required=True,
                   choices=["add", "mul", "eq", "hom", "kernel"])
    p.add_argument("--a", help='fraction JSON {"num": .., "den": ..}')
    p.add_argument("--b")
    p.add_argument("--elem", type=int, help="ring element for hom/kernel")
    p.set_defaults(func=_cmd_frac)

    p = sub.add_parser("selftest", help="run the reduced property suite")
    p.set_defaults(func=_cmd_selftest)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
