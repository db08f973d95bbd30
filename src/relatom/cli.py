"""Command-line surface.

Subcommands
-----------
tf-solve     solve a Thomas-Fermi atom, print slope0 / mu / E_TF / C_TF,
             optionally write the solution JSON.
verify       run a named invariant suite with one PASS/FAIL line per check.
budget       assemble the error budget at given (alpha, r, t, s, beta),
             write CSV/JSON, print the binding term and its margin.
asymptotics  the flagship Z-sweep: per Z report the semiclassical lower
             bound next to -C_TF(lambda) Z^{7/3}.

Exit codes: 0 success, 1 usage, 2 computation failure, 3 verification
failure, 4 budget violation.

Data files are byte-deterministic for identical flags; run metadata
(package version, argv, timestamp) goes to a ``<path>.meta.json`` sidecar.

No command imports scipy, which is only the tests' oracle for the ports
of its routines; ``verify`` imports its suites when it runs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from . import thomas_fermi as tf
from .errors import BudgetViolation, DomainError, RelatomError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTATION = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4

DEFAULT_DELTA = 2.0 / math.pi
DEFAULT_PARTITION = {"r": 0.95, "t": 0.5, "s": 0.55, "beta": 0.1}
# the verify choices: every suite of checks.SUITES, in order, plus 'all'
VERIFY_SUITES = (
    "numerics", "specfun", "kinetic", "thomas_fermi", "coherent", "identity", "bounds", "all",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the CLI contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_with_sidecar(path, payload, argv):
    path = Path(path)
    path.write_text(payload, encoding="utf-8")
    meta = {
        "tool": "relatom",
        "version": __version__,
        "argv": argv,
        "written_unix_time": time.time(),
    }
    Path(str(path) + ".meta.json").write_text(
        json.dumps(meta, indent=1, sort_keys=True), encoding="utf-8"
    )


def cmd_tf_solve(args, argv):
    params = tf.TFParams(lam=args.lam, Z=args.Z, gamma_kin=args.gamma)
    try:
        sol = tf.solve(params, tol=args.tol)
    except RelatomError as exc:
        print(f"tf-solve failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    energy = float(tf.tf_energy(sol))
    print(f"slope0 = {float(sol.slope0)!r}")
    print(f"mu = {float(sol.mu)!r}")
    print(f"E_TF({args.lam:g}, {args.Z:g}) = {energy!r}")
    # E = (Z^2/b) e(lambda) with b ~ Z^{-1/3}: exactly -C_TF(lambda) Z^{7/3}
    print(f"C_TF({args.lam:g}) = {-energy / args.Z ** (7.0 / 3.0)!r}")
    if args.out:
        _write_with_sidecar(args.out, tf.solution_to_json(sol), argv)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args, argv):
    from . import checks

    try:
        results = checks.run_suite(args.suite)
    except RelatomError as exc:
        print(f"verify failed to run: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    failed = None
    for r in results:
        print(r.line())
        if failed is None and not r.passed:
            failed = r.name
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    if failed is not None:
        print(f"first failing check: {failed}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _budget_inputs(args):
    if args.alpha is not None:
        alpha = args.alpha
        delta = args.delta
        Z = delta / alpha
    else:
        Z = args.Z
        delta = args.delta
        alpha = delta / Z
    return alpha, delta, Z


def cmd_budget(args, argv):
    from . import bounds as bd
    from . import semiclassics as sc

    try:
        alpha, delta, Z = _budget_inputs(args)
        pp = bd.PartitionParams(r=args.r, t=args.t, s=args.s, beta=args.beta, alpha=alpha)
        cs = sc.CoherentSpec.reference(args.s)
        sol = tf.solve(tf.TFParams(lam=args.lam, Z=Z), tol=1e-4)
        violation = None
        try:
            budget = bd.assemble_error_budget(pp, sol, cs, q_spin=args.q)
        except BudgetViolation as exc:
            violation = exc
            budget = exc.budget
    except RelatomError as exc:
        print(f"budget failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    if args.csv:
        _write_with_sidecar(args.csv, budget.to_csv(), argv)
    if args.json:
        doc = budget.to_json_dict()
        if violation is not None:
            doc["violation"] = violation.term_name
        _write_with_sidecar(args.json, json.dumps(doc, indent=1, sort_keys=True), argv)
    binding = budget.binding_term()
    print(f"alpha = {alpha!r}  (Z = {Z:g}, delta = {delta:g}, lambda = {args.lam:g})")
    for t in budget.terms:
        print(f"  {t.name:26s} value = {t.value_at_alpha:> .6e}  exponent = {t.alpha_exponent:+.4f}")
    print(f"total = {float(budget.total)!r}")
    print(f"binding term: {binding.name} (exponent {binding.alpha_exponent:+.4f}, "
          f"margin above -4/3: {budget.margin():+.4f})")
    if violation is not None:
        print(f"budget violation: {violation}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _asymptotics_row(Z, cfg):
    """One Z-row of the flagship sweep.  Rows share the cached universal
    profile of lambda and the cached c(phi), so only the first pays for them."""
    from . import bounds as bd
    from . import semiclassics as sc

    alpha = cfg["delta"] / Z
    try:
        sol = tf.solve(tf.TFParams(lam=cfg["lambda"], Z=Z), tol=1e-4)
        pp = bd.PartitionParams(r=cfg["r"], t=cfg["t"], s=cfg["s"], beta=cfg["beta"],
                                alpha=alpha)
        cs = sc.CoherentSpec.reference(cfg["s"])
        budget = bd.assemble_error_budget(pp, sol, cs)
        e_ref = tf.tf_energy(sol)                  # = -C_TF(lam) Z^{7/3}
        e_lower = e_ref - budget.total / alpha     # H_rel units
        return {
            "Z": Z,
            "alpha": alpha,
            "E_lower": e_lower,
            "E_ref": e_ref,
            "ratio": e_ref / e_lower,
            "budget_total": budget.total,
            "E_lower_scaled": alpha * e_lower,
            "E_ref_scaled": alpha * e_ref,
            "status": "ok",
        }
    except RelatomError as exc:
        return {
            "Z": Z,
            "alpha": alpha,
            "E_lower": math.nan,
            "E_ref": math.nan,
            "ratio": math.nan,
            "budget_total": math.nan,
            "E_lower_scaled": math.nan,
            "E_ref_scaled": math.nan,
            "status": f"failed:{type(exc).__name__}",
        }


ASYMPTOTICS_COLUMNS = (
    "Z", "alpha", "E_lower", "E_ref", "ratio", "budget_total",
    "E_lower_scaled", "E_ref_scaled", "status",
)


def _number(value, key):
    """A JSON config value as float; strings and booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def cmd_asymptotics(args, argv):
    cfg = dict(DEFAULT_PARTITION)
    cfg.update({"delta": DEFAULT_DELTA, "lambda": 1.0, "z_values": [10.0, 100.0, 1000.0, 10000.0]})
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(loaded, dict):
            print("config: must be a flat JSON object", file=sys.stderr)
            return EXIT_USAGE
        cfg.update(loaded)
    for key, flag in (("delta", args.delta), ("lambda", args.lam), ("r", args.r),
                      ("t", args.t), ("s", args.s), ("beta", args.beta)):
        if flag is not None:
            cfg[key] = flag
    if args.Z:
        cfg["z_values"] = args.Z
    try:
        for key in ("delta", "lambda", "r", "t", "s", "beta"):
            cfg[key] = _number(cfg[key], key)
        if not isinstance(cfg["z_values"], list) or not cfg["z_values"]:
            raise ValueError(f"z_values must be a non-empty list, got {cfg['z_values']!r}")
        z_values = [_number(Z, "every Z") for Z in cfg["z_values"]]
    except ValueError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not all(math.isfinite(Z) and Z > 0.0 for Z in z_values):
        print("every Z must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    from . import bounds as bd
    from . import semiclassics as sc

    try:
        # the budget's inputs for the first row, checked once before any row
        bd.check_budget_inputs(
            bd.PartitionParams(r=cfg["r"], t=cfg["t"], s=cfg["s"], beta=cfg["beta"],
                               alpha=cfg["delta"] / z_values[0]),
            tf.TFParams(lam=cfg["lambda"], Z=z_values[0]),
            sc.CoherentSpec.reference(cfg["s"]),
        )
    except DomainError as exc:
        print(f"invalid sweep parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rows = [_asymptotics_row(Z, cfg) for Z in z_values]

    buf = io.StringIO()
    buf.write(",".join(ASYMPTOTICS_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(
            row[col] if col == "status" else repr(float(row[col]))
            for col in ASYMPTOTICS_COLUMNS
        ) + "\n")
    payload = buf.getvalue()
    if args.csv:
        _write_with_sidecar(args.csv, payload, argv)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(payload)
    if any(row["status"] != "ok" for row in rows):
        print("one or more rows failed", file=sys.stderr)
        return EXIT_COMPUTATION
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="relatom", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tf-solve", help="solve a Thomas-Fermi atom")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="N/Z")
    p.add_argument("--Z", type=float, required=True, help="nuclear charge")
    p.add_argument("--gamma", type=float, default=tf.GAMMA_TF_PAPER,
                   help="kinetic coefficient (default (3 pi^2)^{2/3})")
    p.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    p.add_argument("--out", type=str, default=None, help="write solution JSON here")
    p.set_defaults(func=cmd_tf_solve)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("budget", help="assemble the error budget")
    at = p.add_mutually_exclusive_group(required=True)
    at.add_argument("--alpha", type=float, default=None)
    at.add_argument("--Z", type=float, default=None, help="sets alpha = delta / Z")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--r", type=float, default=DEFAULT_PARTITION["r"])
    p.add_argument("--t", type=float, default=DEFAULT_PARTITION["t"])
    p.add_argument("--s", type=float, default=DEFAULT_PARTITION["s"])
    p.add_argument("--beta", type=float, default=DEFAULT_PARTITION["beta"])
    p.add_argument("--q", type=int, default=2, help="spin multiplicity, >= 1")
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--json", type=str, default=None)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser(
        "asymptotics",
        help="the flagship Z-sweep",
        epilog="rows run in one process and share one universal profile and one "
               "c(phi); --delta must lie in (0, 2/pi], every --Z be positive, "
               "--lambda positive, 0 < --t < --r < 1, 1/3 < --t < --s, --s in (1/3, 2/3) "
               "and --beta in (0, 1/2)",
    )
    p.add_argument("--Z", type=float, nargs="+", default=None, help="Z values")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--config", type=str, default=None, help="flat JSON config; flags override")
    p.add_argument("--csv", type=str, default=None)
    p.set_defaults(func=cmd_asymptotics)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except RelatomError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
