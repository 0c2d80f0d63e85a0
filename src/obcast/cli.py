"""Command-line front end.

Subcommands: ``reproduce`` (full report of every tracked value), ``bound``
(one computation), ``check`` (ensemble diagnostics), ``gallery`` (named
objects), ``ur-test`` (randomized relation suites), ``moe`` (game bounds).
Each subcommand takes only the flags it reads: ``--seed`` and ``--trials``
for ``reproduce`` and ``ur-test``, ``--tol-gap`` and ``--tol-eig`` for
``reproduce``, ``bound`` and ``check``.  The command line is the only
input: no environment variable sets a flag.

Exit codes: 0 all checks pass, 1 usage or input error, 2 internal failure,
3 a tracked check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import broadcast, moe, qpv
from .discrimination import DEFAULT_SETTINGS, SolverSettings, p_postinfo
from .ensembles import (
    GopEnsemble,
    NotGloballyOrthogonal,
    PostInfoEnsemble,
    from_json_dict,
    gallery,
    gallery_names,
    gen_bb84_angle,
    induced_postinfo,
    qubit_qudit_form_check,
    to_json_dict,
)
from .errors import ChunkFailure, InternalInconsistency, SolverFailure
from .reporting import reports_to_csv, reports_to_json
from .reproduce import SUITES, run_reproduce

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="obcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def sampling(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--trials", type=int)

    def tolerances(p):
        p.add_argument(
            "--tol-gap",
            type=float,
            default=DEFAULT_SETTINGS.gap_tol,
            help="certified duality-gap tolerance for discrimination solves",
        )
        p.add_argument(
            "--tol-eig",
            type=float,
            default=DEFAULT_SETTINGS.psd_tol,
            help="PSD and identity tolerance of target rows and measurements; 0 allows rounding only",
        )

    rep = sub.add_parser("reproduce", help="recompute every tracked value and emit a report")
    sampling(rep)
    tolerances(rep)
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    rep.add_argument("--out", type=Path)
    rep.add_argument("--only", help="substring filter on case ids")
    rep.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    rep.add_argument("--quiet", action="store_true")

    bnd = sub.add_parser("bound", help="compute one bound for a gallery entry or ensemble file")
    tolerances(bnd)
    src = bnd.add_mutually_exclusive_group(required=True)
    src.add_argument("--gallery", dest="gallery_name")
    src.add_argument("--file", type=Path)
    bnd.add_argument("--method", choices=("postinfo", "thm4", "prop4", "disk", "moe"), required=True)

    chk = sub.add_parser("check", help="validate an ensemble and decide broadcast feasibility")
    tolerances(chk)
    src = chk.add_mutually_exclusive_group(required=True)
    src.add_argument("--gallery", dest="gallery_name")
    src.add_argument("--file", type=Path)

    gal = sub.add_parser("gallery", help="list gallery names or dump one object as JSON")
    gal.add_argument("name", nargs="?")

    urt = sub.add_parser("ur-test", help="run the randomized uncertainty-relation suite")
    sampling(urt)

    mg = sub.add_parser("moe", help="game-route bounds for a named game")
    mg.add_argument("--game", choices=("bb84", "obb"), required=True)
    return parser


def _settings(args) -> SolverSettings:
    return SolverSettings(gap_tol=args.tol_gap, psd_tol=args.tol_eig)


def _load_source(args):
    """(name, object) for --gallery / --file inputs: the gallery object, or the ensemble of the file's document."""
    if args.gallery_name:
        return args.gallery_name, gallery(args.gallery_name)
    return str(args.file), from_json_dict(json.loads(args.file.read_text()))


def _print_record(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _cmd_reproduce(args) -> int:
    out = args.out or Path(f"obcast-report.{args.format}")
    # a path that cannot be written fails before the report is computed, not after
    if out.is_dir():
        raise ValueError(f"--out {out} is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--out {out}: no directory {out.parent}")
    reports = run_reproduce(
        seed=args.seed,
        only=args.only,
        trials=args.trials,
        settings=_settings(args),
    )
    if not reports:
        raise ValueError(f"--only {args.only!r} selects no case")
    if not args.quiet:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            expected = "-" if r.expected is None else f"{r.expected!r}"
            print(f"{status} {r.id}: computed={r.computed!r} expected={expected} [{r.certificate}]")
    text = reports_to_json(reports) if args.format == "json" else reports_to_csv(reports)
    out.write_text(text)
    if not args.quiet:
        failed = [r for r in reports if not r.passed]
        print(f"{len(reports)} cases, {len(reports) - len(failed)} passed -> {out}")
    gate = [r for r in reports if r.certificate != "heuristic" and not r.passed]
    return EXIT_FAILED if gate else EXIT_OK


def _not_an_ensemble(obj) -> ValueError:
    """The input error of ``bound --method postinfo`` and ``check`` on a gallery object that is no ensemble."""
    return ValueError(f"{type(obj).__name__} is not an ensemble; provide a post-information or product ensemble")


def _postinfo_view(obj):
    """The post-information ensemble of ``obj``: itself, or a product set reduced on its first classical factor."""
    if isinstance(obj, PostInfoEnsemble):
        return obj
    if not isinstance(obj, GopEnsemble):
        raise _not_an_ensemble(obj)
    for side in ("a", "b"):  # the gallery's classical-quantum sets are classical on a
        try:
            return induced_postinfo(obj, classical_side=side)
        except ValueError:
            continue
    raise ValueError("no classical side to reduce on; provide a post-information ensemble")


# gallery entry -> the constant shift of its coupled-disk program
_DISK_PROGRAMS = {
    "obb": qpv.OBB_DISK_SHIFT,
    "qq-tilde": qpv.QQ_TILDE_DISK_SHIFT,
    "qq": qpv.QQ_TILDE_DISK_SHIFT,  # via the certified one-sided unitary equivalence
}


def _bound_record(method: str, entry: str | None, name: str, obj, settings: SolverSettings) -> dict:
    """The ``bound`` record of ``method`` on the input ``name``; a pair with no route is a ``ValueError``.

    Every method but ``postinfo`` is routed by ``entry``, the gallery name,
    which a file does not have: a file's path names no gallery object.
    """
    # the angle when the entry is the rotated family, bb84 included; a post-information view needs no name
    theta = None if method == "postinfo" or entry is None else gen_bb84_angle(entry)
    if method == "postinfo":
        result = p_postinfo(_postinfo_view(obj), settings)
        record = {"computed": result.value, "certificate": "dual-certified", "gap": result.certificate.gap}
    elif method == "thm4" and (theta is not None or entry == "shifts"):
        inst = qpv.shifts_instance() if theta is None else qpv.bb84_family_instance(theta)
        record = {"computed": qpv.thm4_min_epsilon(inst), "certificate": "analytic"}
    elif method == "prop4" and theta is not None:
        spec = qpv.bb84_family_instance(theta).spec
        record = {"computed": qpv.prop4_solve(spec), "certificate": "heuristic"}
    elif method == "disk" and entry in _DISK_PROGRAMS:
        record = {"computed": qpv.disk_program_solve(_DISK_PROGRAMS[entry]), "certificate": "analytic"}
    elif method == "moe" and entry == "obb":
        record = {"computed": moe.example_go_trivial().copy_strategy_bound, "certificate": "exact"}
    elif method == "moe" and theta == math.pi / 2:  # the two-basis game is the family at pi/2 only
        record = {"computed": moe.classical_copy_permutation_bound(moe.game_bb84()), "certificate": "exact"}
    else:
        raise ValueError(f"no {method} bound is known for {name!r}")
    return {"id": f"{method}:{name}", **record}


def _cmd_bound(args) -> int:
    name, obj = _load_source(args)
    _print_record(_bound_record(args.method, args.gallery_name, name, obj, _settings(args)))
    return EXIT_OK


# gallery entry -> the isometry that broadcasts its orthogonality
_PROTOCOLS = {"thm1-pairs": "thm1-isometry", "thm2-eight": "thm2-isometry", "cor4-six": "cor4-isometry"}


def _cmd_check(args) -> int:
    try:
        _, obj = _load_source(args)
    except NotGloballyOrthogonal as exc:
        print(f"orthogonality: VIOLATED at pair {exc.report.worst_pair} (deviation {exc.report.max_violation:.3e})")
        return EXIT_FAILED
    if isinstance(obj, GopEnsemble):
        print(f"orthogonality: ok (max deviation {obj.orthogonality.max_violation:.3e})")
        form = qubit_qudit_form_check(obj)
        print(f"qubit-qudit form: {'fits' if form.fits else form.reason}")
    elif not isinstance(obj, PostInfoEnsemble):
        raise _not_an_ensemble(obj)
    try:
        ens = _postinfo_view(obj)
    except ValueError:
        print("classical reduction: no classical side; stopping at the form check")
        return EXIT_OK
    iso_name = _PROTOCOLS.get(args.gallery_name)
    if iso_name:
        report = broadcast.verify_orthogonality_broadcast(gallery(iso_name), ens)
        verdict = "verified" if report.ok else f"FAILED (overlap {report.max_overlap:.3e})"
        print(f"quantum-communication protocol ({iso_name}): {verdict}")
    decision = broadcast.perfect_classical_broadcast_decision(ens, _settings(args))
    cert = decision.certificate
    if cert.certified_infeasible:
        print(f"kill-pattern certificate: infeasible ({len(cert.kernel_dims)} patterns, all kernels trivial)")
    else:
        alive = sum(1 for v in cert.kernel_dims.values() if v > 0)
        print(f"kill-pattern certificate: inconclusive ({alive} patterns with nontrivial kernels)")
    if decision.feasible:
        print(
            f"classical broadcast: feasible (value {decision.value:.9f}, "
            f"witness violation {decision.witness_violation:.2e})"
        )
    elif decision.reaches_one:  # a nearly feasible set, which the exact certificate decides
        top = decision.value + decision.gap
        print(
            f"classical broadcast: infeasible by the kill-pattern certificate "
            f"(certified window [{decision.value:.12f}, {top:.12f}] reaches 1)"
        )
    else:
        print(f"classical broadcast: infeasible (optimal value {decision.value:.9f} < 1)")
    return EXIT_OK


def _cmd_gallery(args) -> int:
    if args.name is None:
        for name in gallery_names():
            print(name)
        return EXIT_OK
    obj = gallery(args.name)
    print(json.dumps(to_json_dict(obj), sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_ur_test(args) -> int:
    (report,) = run_reproduce(seed=args.seed, only="prop-ur-pair-soundness", trials=args.trials)
    trials = SUITES["prop-ur-pair-soundness"][0] if args.trials is None else args.trials
    verdict = "PASS" if report.passed else "FAIL"
    print(f"pair relation: {trials} trials, max(lhs - rhs) = {report.computed:.3e} -> {verdict}")
    return EXIT_OK if report.passed else EXIT_FAILED


def _cmd_moe(args) -> int:
    if args.game == "bb84":
        game = moe.game_bb84()
        print(f"overlap constant: {moe.overlap_constant(game)!r}")
        print(f"permutation bound (classical-copy registers): {moe.classical_copy_permutation_bound(game)!r}")
        return EXIT_OK
    report = moe.example_go_trivial()
    print(f"overlap constant: {report.overlap_constant!r}")
    print(f"permutation bound (copying strategy): {report.copy_strategy_bound!r}")
    print(f"broadcast-route contrast: {report.contrast_bound!r}")
    return EXIT_OK


_COMMANDS = {
    "reproduce": _cmd_reproduce,
    "bound": _cmd_bound,
    "check": _cmd_check,
    "gallery": _cmd_gallery,
    "ur-test": _cmd_ur_test,
    "moe": _cmd_moe,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ChunkFailure, InternalInconsistency, SolverFailure) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
