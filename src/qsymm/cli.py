"""Command-line frontend.

Subcommands cover the computational operations (product, lambda, frobenius,
express, expand, plethysm-e-p) and the verification suites (exp-check,
certify, oracle, verify-all). Exit codes: 0 success, 1 verification failure,
2 usage or parse error. JSON output is deterministic: identical invocations
produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, Sequence, TextIO

from .compositions import (
    _check_index,
    enumerate_compositions,
    enumerate_elementary_lyndon,
    concat_power,
    format_composition,
    is_lyndon,
    parse_composition,
    weight,
)
from .elements import (
    QSymmElement,
    element_to_json_obj,
    format_element,
    parse_element,
)
from .errors import ConsistencyError, IntegralityError, ParseError
from .generators import (
    certificate_to_json_obj,
    expand,
    express,
    format_generator_polynomial,
    freeness_certificate,
    generator_polynomial_to_json_obj,
    parse_generator_polynomial,
)
from .lambda_ops import (
    elementary_gen,
    exp_identity_check,
    frobenius,
    lambda_n,
)
from .oracle import OracleCheck, oracle_suite
from .symmetric import e_compose_p, format_symm, plethysm_compat_check


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Standard output for no path or `-`, else the file at `path`.

    A file is written beside `path` and renamed over it once closed, so an
    output that fails part-way leaves `path` as it was. A path that exists
    but is no regular file, such as a device or a pipe, is written in place.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="ascii") as fh:
            yield fh
        return
    part = f"{target}.{os.getpid()}.part"
    fh = open(part, "x", encoding="ascii")
    try:
        with fh:
            yield fh
        os.replace(part, target)
    except BaseException:
        os.remove(part)
        raise


def _write(text: str, path: str | None) -> None:
    with _output(path) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _write_json(obj, path: str | None) -> None:
    """`json.dumps(obj, indent=2)` and a newline, written chunk by chunk as
    the encoder makes them rather than joined into one string first."""
    with _output(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _emit_element(el: QSymmElement, args: argparse.Namespace) -> None:
    if args.format == "json":
        _write_json(element_to_json_obj(el), args.output)
    else:
        _write(format_element(el), args.output)


# -- verification report ------------------------------------------------------


def _vcheck(identity: str, instance: str, ok: bool, lhs: str = "", rhs: str = "") -> OracleCheck:
    return OracleCheck(identity, instance, "pass" if ok else "fail", lhs, rhs)


def verify_all(max_weight: int) -> list[OracleCheck]:
    """Run every verification suite up to the given weight: the polynomial
    oracle, express round trips, lambda leading terms, plethysm
    compatibility, the exponential identity, and freeness certificates for
    both generator families."""
    _check_index(max_weight, 1, "max_weight must be >= 1")
    checks = [
        replace(c, identity=f"oracle/{c.identity}")
        for c in oracle_suite(max_weight, max_weight).checks
    ]

    for w in range(1, max_weight + 1):
        for beta in enumerate_compositions(w):
            expanded = expand(express(beta))
            ok = expanded == QSymmElement.monomial(beta)
            checks.append(
                _vcheck(
                    "express-round-trip",
                    format_composition(beta),
                    ok,
                    format_element(expanded),
                    format_composition(beta),
                )
            )

    for w in range(1, min(4, max_weight) + 1):
        for alpha in enumerate_compositions(w):
            if not is_lyndon(alpha):
                continue
            for n in (2, 3):
                lead = elementary_gen(n, alpha).leading_term_wll()
                expected = (concat_power(alpha, n), 1)
                checks.append(
                    _vcheck(
                        "lambda-leading-term",
                        f"lambda{n}({format_composition(alpha)})",
                        lead == expected,
                        f"{format_composition(lead[0])}:{lead[1]}",
                        f"{format_composition(expected[0])}:1",
                    )
                )

    plethysm_bound = min(8, max_weight + 2)
    for alpha in enumerate_elementary_lyndon(plethysm_bound):
        wt = weight(alpha)
        for n in range(1, plethysm_bound // wt + 1):
            for m in range(1, plethysm_bound // (n * wt) + 1):
                ok = plethysm_compat_check(n, m, alpha)
                checks.append(
                    _vcheck(
                        "plethysm-compat",
                        f"e{n} o p{m} at {format_composition(alpha)}",
                        ok,
                    )
                )

    for w in range(0, min(3, max_weight) + 1):
        for alpha in enumerate_compositions(w):
            ok = exp_identity_check(alpha, 4)
            checks.append(
                _vcheck("exp-identity", f"{format_composition(alpha)} order 4", ok)
            )

    for identity, family, top in (
        ("certificate", "elementary", max_weight),
        ("certificate-product-form", "product", min(5, max_weight)),
    ):
        for w in range(1, top + 1):
            try:
                cert = freeness_certificate(w, family)
                ok, lhs = cert.is_unimodular, str(cert.determinant)
            except ConsistencyError as exc:
                ok, lhs = False, str(exc)
            checks.append(_vcheck(identity, f"weight {w}", ok, lhs, "+1/-1"))

    return checks


# -- subcommand handlers --------------------------------------------------------


def _cmd_product(args: argparse.Namespace) -> int:
    left = parse_element(args.left)
    right = parse_element(args.right)
    _emit_element(left * right, args)
    return 0


def _cmd_lambda(args: argparse.Namespace) -> int:
    _check_index(args.n, 0, "lambda index must be >= 0")
    comp = parse_composition(args.composition)
    _emit_element(lambda_n(args.n, QSymmElement.monomial(comp)), args)
    return 0


def _cmd_frobenius(args: argparse.Namespace) -> int:
    _check_index(args.n, 1, "frobenius index must be >= 1")
    comp = parse_composition(args.composition)
    _emit_element(frobenius(args.n, QSymmElement.monomial(comp)), args)
    return 0


def _cmd_express(args: argparse.Namespace) -> int:
    g = express(parse_composition(args.composition))
    if args.format == "json":
        _write_json(generator_polynomial_to_json_obj(g), args.output)
    else:
        _write(format_generator_polynomial(g), args.output)
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    g = parse_generator_polynomial(args.polynomial)
    _emit_element(expand(g), args)
    return 0


def _cmd_plethysm(args: argparse.Namespace) -> int:
    f = e_compose_p(args.n, args.m)
    if args.format == "json":
        obj = [{"partition": list(part), "coeff": str(q)} for part, q in f.terms()]
        _write_json(obj, args.output)
    else:
        _write(format_symm(f), args.output)
    return 0


def _cmd_exp_check(args: argparse.Namespace) -> int:
    _check_index(args.order, 1, "series order must be >= 1")
    comp = parse_composition(args.composition)
    ok = exp_identity_check(comp, args.order)
    status = "pass" if ok else "fail"
    if args.format == "json":
        obj = {
            "identity": "exponential-series",
            "composition": list(comp),
            "order": args.order,
            "status": status,
        }
        _write_json(obj, args.output)
    else:
        _write(
            f"exponential identity for {format_composition(comp)} "
            f"at order {args.order}: {status}",
            args.output,
        )
    return 0 if ok else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    cert = freeness_certificate(args.weight, args.generators)
    if args.json is not None:
        _write_json(certificate_to_json_obj(cert), args.json)
    print(
        f"weight {cert.weight}: {cert.size} monomials, {cert.size} compositions, "
        f"determinant {cert.determinant:+d}"
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    report = oracle_suite(args.max_weight, args.vars)
    if args.json is not None:
        _write_json(report.to_json_obj(), args.json)
    print(report.summary())
    for c in report.failures:
        print(f"  FAIL {c.identity} {c.instance}")
    return 0 if report.passed else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    checks = verify_all(args.max_weight)
    if args.json is not None:
        _write_json([c.to_json_obj() for c in checks], args.json)
    by_suite: dict[str, list[OracleCheck]] = {}
    for c in checks:
        by_suite.setdefault(c.identity.split("/")[0], []).append(c)
    failed = 0
    for suite, suite_checks in by_suite.items():
        n_fail = sum(1 for c in suite_checks if c.status != "pass")
        failed += n_fail
        state = "ok" if n_fail == 0 else f"{n_fail} FAILED"
        print(f"{suite}: {len(suite_checks)} checks, {state}")
    for c in checks:
        if c.status != "pass":
            print(f"  FAIL {c.identity} {c.instance}")
    return 0 if failed == 0 else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymm",
        description="Exact arithmetic for quasisymmetric functions: quasi-shuffle "
        "products, lambda operations, Lyndon generator bases and freeness "
        "certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("product", help="quasi-shuffle product of two elements")
    p.add_argument("left")
    p.add_argument("right")
    add_io(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("lambda", help="n-th lambda operation of a composition")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("composition")
    add_io(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("frobenius", help="n-th Adams operator of a composition")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("composition")
    add_io(p)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("express", help="rewrite a composition in the generator basis")
    p.add_argument("composition")
    add_io(p)
    p.set_defaults(func=_cmd_express)

    p = sub.add_parser("expand", help="expand a generator polynomial into compositions")
    p.add_argument("polynomial")
    add_io(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser(
        "plethysm-e-p",
        help="elementary function composed with a power sum, in the e basis",
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    add_io(p)
    p.set_defaults(func=_cmd_plethysm)

    p = sub.add_parser("exp-check", help="verify the exponential series identity")
    p.add_argument("-N", dest="order", type=int, required=True, help="truncation order")
    p.add_argument("composition")
    add_io(p)
    p.set_defaults(func=_cmd_exp_check)

    p = sub.add_parser("certify", help="freeness certificate for one weight")
    p.add_argument("--weight", type=_positive_int, required=True)
    p.add_argument(
        "--generators",
        choices=("elementary", "product"),
        default="elementary",
        help="which generator family labels the columns",
    )
    p.add_argument("--json", default=None, help="write the certificate JSON here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("oracle", help="run the polynomial substitution oracle")
    p.add_argument("--max-weight", type=_positive_int, required=True)
    p.add_argument("--vars", type=_positive_int, required=True)
    p.add_argument("--json", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify-all", help="run every verification suite")
    p.add_argument("--max-weight", type=_positive_int, required=True)
    p.add_argument("--json", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, IntegralityError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        # the input is too large to process, which is no verification result
        print(f"error: input too large ({type(exc).__name__})", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
