"""Seeded request generators and output checks for the three workloads.

A workload turns ``--seed`` into an endless, deterministic sequence of
``Request`` objects.  Each request is the argv the program receives
(``python -m relatom.cli <argv>``) plus the data files it writes; nothing
else about the workload reaches the program.

Cost-driving properties (the lambda family of an atom; ion or neutral, and
the number of Z values, of a sweep) follow a fixed rotation, so every run sees the same mix; the seed
draws the values inside each family.  That keeps the per-run medians
comparable across seeds while every seed still gives new inputs.

``check_*`` functions run in the benchmark process, outside the timed
region.  They return one ``Outcome`` per operation:

* ``ok``       -- the output passed every check;
* ``refused``  -- the program declined with a typed error (exit 2 and a
  ``RelatomError`` message).  Counted in ``failed``; the workloads stay
  inside the domain where the program answers, so none is expected;
* ``wrong``    -- the program reported success but the output is wrong,
  or it crashed.  Counted in ``failed`` and makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

OK, REFUSED, WRONG = "ok", "refused", "wrong"

# tf-solve's default --tol, which the atoms requests leave in place
TF_RESIDUAL_TOL = 1e-6
MASS_TOL = 1e-6
ENERGY_TOL = 1e-4

SWEEP_COLUMNS = [
    "Z", "alpha", "E_lower", "E_ref", "ratio", "budget_total",
    "E_lower_scaled", "E_ref_scaled", "status",
]


@dataclass(frozen=True)
class Request:
    index: int
    family: str
    argv: tuple
    data_files: tuple = ()
    params: dict = field(default_factory=dict)

    def record(self):
        return {"index": self.index, "family": self.family, "argv": list(self.argv)}


@dataclass(frozen=True)
class Outcome:
    status: str
    reason: str = ""


def _log_uniform(rng, lo, hi, u=None):
    u = rng.random() if u is None else u
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


STRATA = 3


def _stratified(rng, m=STRATA):
    """Uniform draws on [0, 1) that visit each of ``m`` equal strata once per
    block of ``m``, in seeded order: the marginal law is unchanged, but a
    short run no longer sees, say, three ions from the same end of the range."""
    while True:
        order = list(range(m))
        rng.shuffle(order)
        for j in order:
            yield (j + rng.random()) / m


def _g6(x):
    """Six significant digits: short argv, and the value the program parses."""
    return float(f"{x:.6g}")


# --- atoms -------------------------------------------------------------------

ATOM_FAMILIES = ("neutral", "ionised", "near_neutral")
# The domain on which tf-solve (default --tol 1e-6) succeeds, so that no
# operation fails.  Outside it the program refuses with a typed error:
# ShootingFailure below lambda ~4e-4, and ToleranceFailure once the TF
# residual, which grows like Z^(4/3), passes 1e-6 (Z ~ 1e3 near lambda 0.9,
# Z ~ 1e4 when neutral).  At Z = 300 the worst residual is 3.7e-7.  The cost
# of a request is the universal profile solve, which does not depend on Z.
ATOM_Z_MAX = 300.0
ION_LAMBDA_MIN = 1e-3


def atoms_requests(seed, outdir):
    """tf-solve on log-uniform Z in [1, ATOM_Z_MAX]; lambda from three families
    in turn: neutral lambda in [1, 2], strongly ionised lambda log-uniform on
    [ION_LAMBDA_MIN, 0.9], near-neutral N = Z - k with k in {1, 2, 3}."""
    rng = random.Random(f"atoms:{seed}")
    ion_u, near_u = _stratified(rng), _stratified(rng)
    i = 0
    while True:
        family = ATOM_FAMILIES[i % 3]
        if family == "near_neutral":
            k = rng.choice((1, 2, 3))
            Z = _g6(_log_uniform(rng, k + 1.0, ATOM_Z_MAX, next(near_u)))   # N = Z - k >= 1
            lam = (Z - k) / Z
        else:
            Z = _g6(_log_uniform(rng, 1.0, ATOM_Z_MAX))
            if family == "neutral":
                lam = _g6(rng.uniform(1.0, 2.0))
            else:
                lam = _g6(_log_uniform(rng, ION_LAMBDA_MIN, 0.9, next(ion_u)))
        out = str(Path(outdir) / f"atom{i:04d}.json")
        yield Request(
            index=i,
            family=family,
            argv=("tf-solve", "--lambda", repr(lam), "--Z", repr(Z), "--out", out),
            data_files=(out,),
            params={"lam": lam, "Z": Z},
        )
        i += 1


def _refused(proc, marker):
    return proc.returncode == 2 and marker in proc.stderr


def check_atoms(req, proc, relatom_tf):
    """One operation per request: exit 0, and the solution JSON, reloaded through
    ``solution_from_json``, meets mass, two-route energy and residual."""
    if _refused(proc, "tf-solve failed:"):
        return [Outcome(REFUSED, proc.stderr.strip().splitlines()[-1])]
    if proc.returncode != 0:
        return [Outcome(WRONG, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")]
    try:
        sol = relatom_tf.solution_from_json(Path(req.data_files[0]).read_text())
    except (OSError, ValueError, KeyError) as exc:
        return [Outcome(WRONG, f"unreadable solution: {exc!r}")]
    lam, Z = req.params["lam"], req.params["Z"]
    if sol.params.lam != lam or sol.params.Z != Z:
        return [Outcome(WRONG, f"params echo {sol.params.lam!r}, {sol.params.Z!r}")]
    mass_err = abs(sol.electron_count / (Z * min(lam, 1.0)) - 1.0)
    if not mass_err <= MASS_TOL:
        return [Outcome(WRONG, f"mass error {mass_err:.3e} > {MASS_TOL:g}")]
    e_fun = relatom_tf.tf_functional(sol.params, sol.rho)
    e_id = relatom_tf.tf_energy_slope_identity(sol)
    gap = abs(e_fun - e_id) / abs(e_id)
    if not gap <= ENERGY_TOL:
        return [Outcome(WRONG, f"functional vs slope identity {gap:.3e} > {ENERGY_TOL:g}")]
    residual = relatom_tf.tf_equation_residual(sol)
    if not residual <= TF_RESIDUAL_TOL:
        return [Outcome(WRONG, f"TF residual {residual:.3e} > {TF_RESIDUAL_TOL:g}")]
    return [Outcome(OK)]


# --- sweep -------------------------------------------------------------------

# "mostly neutral, some ions": every fourth sweep is an ion.  The number of
# Z values sets how many rounds the pool runs, so it follows the rotation too.
SWEEP_FAMILIES = ("neutral", "ion", "neutral", "neutral")
SWEEP_SIZES = (3, 4, 5, 6)
DELTA_MAX = 0.636619   # 2/pi rounded down to the six digits the argv carries


def sweep_requests(seed, outdir):
    """asymptotics over 3-6 sorted Z (SWEEP_SIZES in turn) log-uniform on
    [10, 1e4], delta uniform on [0.2, 2/pi], one lambda per sweep (1, or an
    ion in [0.5, 0.95])."""
    rng = random.Random(f"sweep:{seed}")
    i = 0
    while True:
        family = SWEEP_FAMILIES[i % len(SWEEP_FAMILIES)]
        k = SWEEP_SIZES[i % len(SWEEP_SIZES)]
        zs = set()
        while len(zs) < k:
            zs.add(_g6(_log_uniform(rng, 10.0, 1e4)))
        zs = sorted(zs)
        delta = round(rng.uniform(0.2, DELTA_MAX), 6)
        lam = 1.0 if family == "neutral" else round(rng.uniform(0.5, 0.95), 6)
        out = str(Path(outdir) / f"sweep{i:04d}.csv")
        yield Request(
            index=i,
            family=family,
            argv=("asymptotics", "--Z", *map(repr, zs), "--delta", repr(delta),
                  "--lambda", repr(lam), "--csv", out),
            data_files=(out,),
            params={"Z": zs},
        )
        i += 1


def check_sweep(req, proc, _relatom_tf=None):
    """One operation per request: every row ``ok``, ratio in (0, 1], and
    |1 - ratio| strictly decreasing in Z."""
    path = Path(req.data_files[0])
    rows = None
    if path.is_file():
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
    if proc.returncode == 2 and rows and all(r["status"].startswith("failed:") or
                                            r["status"] == "ok" for r in rows):
        bad = [r["status"] for r in rows if r["status"] != "ok"]
        return [Outcome(REFUSED, f"row status {bad}")]
    if proc.returncode != 0:
        return [Outcome(WRONG, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")]
    if rows is None:
        return [Outcome(WRONG, "no CSV written")]
    header = path.read_text().splitlines()[0].split(",")
    if header != SWEEP_COLUMNS:
        return [Outcome(WRONG, f"CSV header {header}")]
    zs = [float(r["Z"]) for r in rows]
    if zs != req.params["Z"]:
        return [Outcome(WRONG, f"Z column {zs}")]
    if any(r["status"] != "ok" for r in rows):
        return [Outcome(WRONG, "exit 0 with a failed row")]
    ratios = [float(r["ratio"]) for r in rows]
    if not all(0.0 < q <= 1.0 for q in ratios):
        return [Outcome(WRONG, f"ratio outside (0, 1]: {ratios}")]
    dev = [abs(1.0 - q) for q in ratios]
    if not all(a > b for a, b in zip(dev, dev[1:])):
        return [Outcome(WRONG, f"|1 - ratio| not decreasing in Z: {dev}")]
    return [Outcome(OK)]


# --- verify ------------------------------------------------------------------

def verify_requests(seed, outdir):
    """``verify all``; its suites use fixed internal seeds, so ``seed`` has no
    effect on this workload."""
    i = 0
    while True:
        yield Request(index=i, family="all", argv=("verify", "all"))
        i += 1


def check_verify(req, proc, _relatom_tf=None):
    """One operation per printed check line; a FAIL line is a failed check."""
    outcomes = []
    for line in proc.stdout.splitlines():
        if line.endswith(" PASS"):
            outcomes.append(Outcome(OK))
        elif line.endswith(" FAIL"):
            outcomes.append(Outcome(WRONG, line))
    if not outcomes:
        return [Outcome(WRONG, f"exit {proc.returncode}, no check lines")]
    if proc.returncode != (3 if len(outcomes) > sum(o.status == OK for o in outcomes) else 0):
        outcomes.append(Outcome(WRONG, f"exit {proc.returncode} disagrees with the check lines"))
    return outcomes


WORKLOADS = {
    "atoms": (atoms_requests, check_atoms),
    "sweep": (sweep_requests, check_sweep),
    "verify": (verify_requests, check_verify),
}

# length of each workload's rotation: a run ends on a whole rotation, so every
# run holds the same mix; for atoms that is each family in each stratum
ROTATION = {"atoms": len(ATOM_FAMILIES) * STRATA, "sweep": len(SWEEP_FAMILIES), "verify": 1}
