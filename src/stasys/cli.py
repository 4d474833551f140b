"""Command-line surface.

Exit codes: 0 success (an inapplicable or inconclusive law included), 1 a
verified property failed, 2 bad input.  All numeric output is printed as an
exact fraction, with a decimal approximation in parentheses when it is not an
integer and a float can hold it.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

# The package holds `io` unloaded: its body runs on the first file access.
# Each command imports the layers it uses, so a cold run compiles only those.
from . import io as sio

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    try:
        return f"{x} (~{float(x):.6g})"
    except OverflowError:  # beyond the float range: the exact fraction alone
        return str(x)


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [sio.parse_frac(tok) for tok in text.replace(",", " ").split()]


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _print_report(report: VerificationReport) -> int:
    if report.status == "inapplicable":
        print(f"INAPPLICABLE {report.name}: {report.details.get('reason', '')}")
        return EXIT_OK
    print(f"{report.status.upper()} {report.name}: "
          f"{fmt(report.lhs)} {report.relation} {fmt(report.rhs)}")
    for k, v in report.details.items():
        print(f"  {k} = {fmt(v) if isinstance(v, (Fraction, int)) else v}")
    return EXIT_FAIL if report.status == "fail" else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stasys",
        description="Stable systoles, cup-length and systolic category bounds "
                    "on weighted cell complexes (exact rational arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="Betti numbers and torsion of a complex")
    p.add_argument("file")

    p = sub.add_parser("systole", help="stable systole in one degree")
    p.add_argument("file")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-R", "--radius", type=int, default=5)

    p = sub.add_parser("stable-norm", help="stable norm of a homology class")
    p.add_argument("file")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--class", dest="coords", required=True,
                   help="comma-separated rational coordinates in the generator basis, "
                        "e.g. --class -1,1/2")

    p = sub.add_parser("cup-length", help="real cup-length of a simplicial complex")
    p.add_argument("file")

    p = sub.add_parser("lpd", help="least positive dimension with homology")
    p.add_argument("source", help="complex file, profile file, or product expression")

    p = sub.add_parser("catstsys", help="stable systolic category bounds")
    p.add_argument("source", help="profile file or product expression like 'S1 x S3'")

    p = sub.add_parser("verify", help="check one of the exact laws")
    vsub = p.add_subparsers(dest="lemma", required=True)
    v = vsub.add_parser("rescale")
    v.add_argument("file")
    v.add_argument("-q", type=int, required=True)
    v.add_argument("--t", required=True)
    v = vsub.add_parser("product")
    v.add_argument("file1")
    v.add_argument("file2")
    v.add_argument("-p", type=int, required=True)
    v.add_argument("-q", type=int, required=True)
    v = vsub.add_parser("projection")
    v.add_argument("file1")
    v.add_argument("file2")
    v.add_argument("-q", type=int, required=True)
    v = vsub.add_parser("degree-sandwich")
    v.add_argument("source", help="source (covering) complex file")
    v.add_argument("target")
    v.add_argument("--vertex-map", required=True,
                   help="comma-separated images: position i holds the image of vertex i")
    v.add_argument("-q", type=int, required=True)

    p = sub.add_parser("deform", help="sweep a first-factor rescaling family")
    p.add_argument("xfile", help="first factor complex (the rescaled one)")
    p.add_argument("yfile", help="second factor complex")
    p.add_argument("--partition", required=True)
    p.add_argument("--t", default="1,2,4,8")
    p.add_argument("-R", "--radius", type=int, default=5)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--class" in argv[:-1]:  # its value may start with "-", as -1,0 does
        i = argv.index("--class")
        argv[i:i + 2] = [f"--class={argv[i + 1]}"]
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads an option value "--" as no value
            parser.error(f"argument {name}: expected one value")
    try:
        return _dispatch(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "homology":
        from .homology import homology

        K = sio.load_complex(args.file)
        summary = homology(K)
        for q in range(K.top_dim + 1):
            tors = list(summary.torsion[q])
            line = f"H_{q}: betti = {summary.betti[q]}"
            if tors:
                line += ", torsion = " + " + ".join(f"Z/{t}" for t in tors)
            print(line)
        return EXIT_OK

    if cmd == "systole":
        from .norms import stable_systole

        K = sio.load_complex(args.file)
        res = stable_systole(K, args.q, search_radius=args.radius)
        if res.is_trivial:
            print(f"stsys_{args.q} = trivial")
        elif res.value is None:
            print(f"stsys_{args.q}: search did not run (radius {args.radius})")
        else:
            print(f"stsys_{args.q} = {fmt(res.value)}  [{res.search_status}; "
                  f"witness class {list(res.witness_class)}]")
        return EXIT_OK

    if cmd == "stable-norm":
        from .homology import HomologyClass
        from .norms import stable_norm

        K = sio.load_complex(args.file)
        coords = tuple(_parse_fraction_list(args.coords))
        res = stable_norm(K, HomologyClass(args.q, coords))
        print(f"stable norm = {fmt(res.value)}  [{res.certificate}]")
        if res.dual is not None:
            print(f"dual: lambda = [{', '.join(map(str, res.dual))}]")
        return EXIT_OK

    if cmd == "cup-length":
        from .cohomology import cup_length

        K = sio.load_complex(args.file)
        print(f"cup-length = {cup_length(K)}")
        return EXIT_OK

    if cmd == "lpd":
        source = _read_source(args.source)
        if isinstance(source, dict):
            from .cohomology import lpd

            value = lpd(sio.complex_from_dict(source))
        else:
            value = source.lpd
        print(f"lpd = {value if value is not None else 'none'}")
        return EXIT_OK

    if cmd == "catstsys":
        from .category import catstsys_bounds

        profile = _read_source(args.source)
        if isinstance(profile, dict):
            raise ValueError(f"{args.source} is a complex file; catstsys reads a profile file "
                             f"or a product expression")
        verdict = catstsys_bounds(profile)
        name = profile.name or "profile"
        if verdict.exact:
            print(f"catstsys({name}) = {verdict.value}")
        else:
            print(f"catstsys({name}) in [{verdict.lower}, {verdict.upper}]")
        print(f"  lower bound: {verdict.lower} via {verdict.lower_rule}")
        print(f"  upper bound: {verdict.upper} via {verdict.upper_rule}")
        for note in verdict.notes:
            print(f"  note: {note}")
        return EXIT_OK

    if cmd == "verify":
        return _verify(args)

    if cmd == "deform":
        from .category import Partition
        from .complexes import DeformationFamily, product_complex
        from .deform import deformation_sweep

        kx = sio.load_complex(args.xfile)
        ky = sio.load_complex(args.yfile)
        family = DeformationFamily(product_complex(kx, ky))
        partition = Partition(tuple(sorted(_parse_int_list(args.partition))))
        report = deformation_sweep(
            family, partition,
            t_samples=tuple(_parse_fraction_list(args.t)),
            search_radius=args.radius,
        )
        if args.format == "csv":
            sys.stdout.write(sio.report_to_csv(report))
        else:
            for s in report.samples:
                print(f"t = {fmt(s.t)}: product = {fmt(s.product)}, "
                      f"volume = {fmt(s.volume)}, ratio = {fmt(s.ratio)}")
        print(f"verdict: {report.verdict} (growth exponent "
              f"{report.growth_exponent if report.growth_exponent is not None else 'n/a'}; "
              f"evidence along one family, not a proof)")
        return EXIT_OK

    raise ValueError(f"unknown command {cmd!r}")


def _verify(args) -> int:
    from .norms import (
        simplicial_map,
        verify_degree_sandwich,
        verify_product_inequality,
        verify_projection_equality,
        verify_rescaling,
    )

    if args.lemma == "rescale":
        K = sio.load_complex(args.file)
        return _print_report(verify_rescaling(K, args.q, sio.parse_frac(args.t)))
    if args.lemma == "product":
        k1 = sio.load_complex(args.file1)
        k2 = sio.load_complex(args.file2)
        return _print_report(verify_product_inequality(k1, k2, args.p, args.q))
    if args.lemma == "projection":
        k1 = sio.load_complex(args.file1)
        k2 = sio.load_complex(args.file2)
        return _print_report(verify_projection_equality(k1, k2, args.q))
    if args.lemma == "degree-sandwich":
        src = sio.load_complex(args.source)
        dst = sio.load_complex(args.target)
        images = _parse_int_list(args.vertex_map)
        info = simplicial_map(src, dst, {i: img for i, img in enumerate(images)})
        return _print_report(verify_degree_sandwich(info, args.q))
    raise ValueError(f"unknown lemma {args.lemma!r}")


def _read_source(source: str) -> dict | DimensionProfile:
    """A complex file's JSON object (one with "cells"), or the profile of a
    profile file or a product expression."""
    if not os.path.exists(source):
        from .category import parse_product_expression

        return parse_product_expression(source)
    data = sio.load_json(source)
    if isinstance(data, dict) and "cells" in data:
        return data
    return sio.profile_from_dict(data)


if __name__ == "__main__":
    sys.exit(main())
