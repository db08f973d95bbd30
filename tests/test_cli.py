import ast
import functools
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import pytest

import relatom
from relatom import bounds as bd
from relatom import cli, numerics
from relatom import thomas_fermi as tf


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scipy_modules_after(tmp_path, *argv):
    """'<exit code> <scipy modules after the import> <after running argv>'
    from a fresh interpreter; every '{tmp}' in argv names tmp_path."""
    script = (
        "import sys\n"
        "import relatom, relatom.cli\n"
        "before = [m for m in sys.modules if m.startswith('scipy')]\n"
        "code = relatom.cli.main(sys.argv[1:])\n"
        "after = [m for m in sys.modules if m.startswith('scipy')]\n"
        "print(code, before, after)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [a.format(tmp=tmp_path) for a in argv]
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, check=True)
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "name", ["relatom"] + [f"relatom.{m.name}" for m in pkgutil.iter_modules(relatom.__path__)])
def test_every_exported_name_resolves(name):
    # a deleted function must take its __all__ entry with it
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# exported names that no package code reads yet, each kept for a reason
UNREAD_EXPORTS = {
    # perfbench's atoms check reads it from the tf-solve output
    "thomas_fermi.solution_from_json",
}


def package_readers():
    """Each submodule's __all__, and the names its code reads as a Name, an
    Attribute or an import alias, each with the (module, top-level
    definition) that reads it; iter_modules does not list __init__."""
    exports, reads = {}, set()
    for info in pkgutil.iter_modules(relatom.__path__):
        path = os.path.join(relatom.__path__[0], f"{info.name}.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                exports[info.name] = ast.literal_eval(stmt.value)
                continue
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, info.name, owner))
                elif isinstance(node, ast.Attribute):
                    reads.add((node.attr, info.name, owner))
                elif isinstance(node, ast.alias):
                    reads.add((node.name, info.name, owner))
    return exports, reads


def test_every_exported_name_has_a_package_reader():
    # a public paper object stays only if package code reads it; its own
    # definition and the package __init__ do not count as readers
    exports, reads = package_readers()
    unread = set()
    for module, names in exports.items():
        for name in names:
            if not any(n == name and (m, owner) != (module, name) for n, m, owner in reads):
                unread.add(f"{module}.{name}")
    # an allowlisted name that gains a reader or leaves __all__ must leave
    # the allowlist too, so the list can only shrink
    assert unread == UNREAD_EXPORTS


def test_import_and_tf_solve_load_no_scipy(tmp_path):
    # neither the import nor a TF solve loads scipy
    last = scipy_modules_after(tmp_path, "tf-solve", "--lambda", "0.5", "--Z", "10",
                               "--out", "{tmp}/sol.json")
    assert last == "0 [] []"


@pytest.mark.parametrize("argv", (
    ("budget", "--alpha", "1e-3", "--csv", "{tmp}/b.csv", "--json", "{tmp}/b.json"),
    ("asymptotics", "--Z", "10", "100", "--lambda", "0.7", "--csv", "{tmp}/a.csv"),
    ("verify", "all"),
))
def test_commands_load_no_scipy(tmp_path, argv):
    # no command needs scipy: verify's adaptive quadrature is the package's
    # own Gauss-Kronrod rule, hyp2f1 and digamma are closed forms or ports
    assert scipy_modules_after(tmp_path, *argv) == "0 [] []"


@pytest.mark.parametrize("argv", (
    ("tf-solve", "--lambda", "1.3", "--Z", "47.5", "--out"),
    ("asymptotics", "--Z", "10", "1000", "--csv"),
))
def test_data_files_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # every reduction is numpy's own sum, not a BLAS dot that OpenBLAS
    # splits across threads in a thread-count-dependent order
    files = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "relatom.cli", *argv, str(path)],
                       capture_output=True, env=env, check=True)
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_verify_suites_run_with_scipy_blocked(monkeypatch):
    # in this process, with scipy hidden and its import refused, every suite
    # still runs and loads none of it
    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")

    from relatom import checks

    for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(sys, "meta_path", [Refuse(), *sys.meta_path])
    import relatom  # noqa: F401

    for suite in checks.SUITES.values():
        suite()
    assert [m for m in sys.modules if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("lam,argv", (
    (1.0, ("budget", "--alpha", "1e-3")),
    (1.0, ("asymptotics",)),
    (0.5, ("tf-solve", "--lambda", "0.5", "--Z", "10", "--out", "{tmp}/sol.json")),
))
def test_commands_build_one_interpolant(capsys, monkeypatch, tmp_path, lam, argv):
    # from a fresh profile: phi's PCHIP, and no density PCHIP
    fresh = functools.lru_cache(tf._solve_universal.__wrapped__)
    monkeypatch.setattr(tf, "_solve_universal", fresh)
    builds = []

    class Counting(numerics.Pchip):
        def __init__(self, x, y):
            builds.append(len(x))
            super().__init__(x, y)

    monkeypatch.setattr(numerics, "Pchip", Counting)
    code, _, _ = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 0
    assert builds == [fresh(lam).xi.size]


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 1
    assert "usage" in err.lower()


class TestTfSolve:
    def test_neutral_prints_slope(self, capsys, tmp_path):
        out_path = tmp_path / "sol.json"
        code, out, _ = run(capsys, "tf-solve", "--lambda", "1", "--Z", "1",
                           "--out", str(out_path))
        assert code == 0
        slope = float(out.split("slope0 = ")[1].splitlines()[0])
        assert abs(slope - (-1.588071)) < 1e-4
        doc = json.loads(out_path.read_text())
        assert doc["mu"] == 0.0
        assert (tmp_path / "sol.json.meta.json").exists()

    def test_ion_prints_positive_mu(self, capsys):
        from relatom import thomas_fermi as tf

        code, out, _ = run(capsys, "tf-solve", "--lambda", "0.5", "--Z", "10")
        assert code == 0
        mu = float(out.split("mu = ")[1].splitlines()[0])
        assert mu > 0.0
        # C_TF(lambda) = -E(lambda, Z)/Z^{7/3} is the Z = 1 energy
        c_tf = float(out.split("C_TF(0.5) = ")[1].splitlines()[0])
        e1 = tf.tf_energy(tf.solve(tf.TFParams(lam=0.5, Z=1.0)))
        assert abs(c_tf / -e1 - 1.0) < 1e-13

    def test_infinite_charge_is_refused(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "tf-solve", "--lambda", "1", "--Z", "inf")
        assert code == 2
        assert "Z must be positive and finite" in err

    def test_missing_lambda_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tf-solve", "--Z", "1")
        assert code == 1
        assert "usage" in err.lower()


class TestVerify:
    def test_specfun_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "specfun")
        assert code == 0
        assert "k2_second_moment" in out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_identity_suite_prints_diagnostic(self, capsys):
        code, out, _ = run(capsys, "verify", "identity")
        assert code == 0
        assert "identity chain ratio" in out
        assert "2 sqrt2/3" in out

    @pytest.mark.parametrize("suite", ["numerics", "thomas_fermi"])
    def test_every_module_suite_is_reachable(self, capsys, suite):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0
        assert f"{suite}." in out

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 1

    def test_choices_are_every_suite_plus_all(self):
        from relatom import checks

        assert cli.VERIFY_SUITES == (*checks.SUITES, "all")

    def test_failing_check_exits_three(self, capsys, monkeypatch):
        from relatom import checks
        from relatom.checks import CheckResult

        def broken():
            return [CheckResult("forced failure", 1.0, 0.0, 1e-12, False)]

        monkeypatch.setattr(checks, "SUITES", dict(checks.SUITES, specfun=broken))
        code, out, err = run(capsys, "verify", "specfun")
        assert code == 3
        assert "forced failure" in err


class TestBudget:
    def test_csv_contract_and_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out, _ = run(capsys, "budget", "--alpha", "1e-3", "--csv", str(p1))
        code2, _, _ = run(capsys, "budget", "--alpha", "1e-3", "--csv", str(p2))
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "name,reference,alpha,value,exponent"
        assert "binding term" in out

    def test_violation_exit_code_with_file(self, capsys, tmp_path):
        path = tmp_path / "v.csv"
        code, _, err = run(capsys, "budget", "--alpha", "1e-3", "--r", "0.85",
                           "--csv", str(path))
        assert code == 4
        assert "inner_zone" in err
        assert path.exists()  # the budget is still written, violation flagged

    # budget --alpha 1e-3 as written before its terms became power sums in
    # log form: (value, exponent) per row, in row order
    RECORDED = {
        "mean_field_smearing": (26.230734487360753, -0.55),
        "inner_zone": (538105.8443493863, -1.1500000000000004),
        "intermediary_zone": (83157.20352258466, -1.25),
        "localisation_gradient": (340194.37798581924, -1.0),
        "localisation_exp_small": (3044.2156915232595, -0.9445380331578046),
        "coherent_kinetic": (105883.3750742625, -1.1),
        "momentum_domain_change": (29.683357694309755, -0.75),
        "quartic_rest_correction": (18.83378040984943, -0.75),
        "mu_mass_bookkeeping": (0.0, 0.0),
    }

    def test_csv_values_match_the_recorded_budget(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        code, _, _ = run(capsys, "budget", "--alpha", "1e-3", "--csv", str(path))
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == list(self.RECORDED)
        for name, _, alpha, value, exponent in rows:
            recorded_value, recorded_exponent = self.RECORDED[name]
            assert alpha == "0.001"
            assert float(exponent) == recorded_exponent  # bit for bit
            assert abs(float(value) - recorded_value) <= 1e-14 * recorded_value, name

    def test_out_of_range_exponents_are_refused(self, capsys):
        code, _, err = run(capsys, "budget", "--alpha", "1e-3", "--t", "0.2", "--s", "0.25")
        assert code == 2
        code, _, err = run(capsys, "budget", "--alpha", "1e-3", "--t", "0.3", "--s", "0.5")
        assert code == 2
        assert "1/3 < t" in err

    def test_t_not_below_s_is_refused(self, capsys):
        code, _, err = run(capsys, "budget", "--alpha", "1e-3", "--t", "0.6", "--s", "0.55")
        assert code == 2
        assert "t < s" in err

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        code, _, _ = run(capsys, "budget", "--Z", "636.6", "--json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert len(doc["terms"]) == 9
        assert doc["total"] > 0

    @pytest.mark.parametrize("flags", ((), ("--alpha", "1e-3", "--Z", "10")))
    def test_exactly_one_of_alpha_and_z(self, capsys, tmp_path, flags):
        path = tmp_path / "never.csv"
        code, out, err = run(capsys, "budget", *flags, "--csv", str(path))
        assert code == 1
        assert "--alpha" in err and "--Z" in err
        assert not path.exists()
        assert out == ""

    @pytest.mark.parametrize("q", ("0", "-2"))
    def test_spin_multiplicity_below_one_is_refused(self, capsys, tmp_path, q):
        csv_path, json_path = tmp_path / "never.csv", tmp_path / "never.json"
        code, out, err = run(capsys, "budget", "--alpha", "1e-3", "--q", q,
                             "--csv", str(csv_path), "--json", str(json_path))
        assert code == 2
        assert "q_spin must be >= 1" in err
        assert not csv_path.exists() and not json_path.exists()
        assert out == ""


class TestAsymptotics:
    def test_single_row_smoke(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        code, _, _ = run(capsys, "asymptotics", "--Z", "137", "--csv", str(path))
        assert code == 0
        header, row = path.read_text().splitlines()
        assert header.split(",")[:6] == ["Z", "alpha", "E_lower", "E_ref",
                                         "ratio", "budget_total"]
        cells = row.split(",")
        assert cells[-1] == "ok"
        assert all(math.isfinite(float(c)) for c in cells[:-1])
        alpha = float(cells[1])
        assert abs(alpha - (2.0 / math.pi) / 137.0) < 1e-15

    def test_lambda_scaling_of_reference(self, capsys, tmp_path):
        rows = {}
        for lam in (1.0, 0.5):
            path = tmp_path / f"lam{lam}.csv"
            code, _, _ = run(capsys, "asymptotics", "--Z", "10", "--lambda",
                             str(lam), "--csv", str(path))
            assert code == 0
            rows[lam] = path.read_text().splitlines()[1].split(",")
        e1 = float(rows[1.0][3])
        e05 = float(rows[0.5][3])
        # E_ref(lam)/E_ref(1) = C_TF(lam)/C_TF(1), Z-independent
        from relatom import thomas_fermi as tf

        c1 = -tf.tf_energy(tf.solve(tf.TFParams(lam=1.0, Z=1.0)))
        c05 = -tf.tf_energy(tf.solve(tf.TFParams(lam=0.5, Z=1.0)))
        assert abs(e05 / e1 - c05 / c1) < 1e-9

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z_values": [20.0], "delta": 0.5}))
        path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "asymptotics", "--config", str(cfg),
                         "--delta", "0.4", "--csv", str(path))
        assert code == 0
        row = path.read_text().splitlines()[1].split(",")
        assert abs(float(row[1]) - 0.4 / 20.0) < 1e-15  # flag overrode the file

    def test_delta_out_of_range(self, capsys):
        code, _, err = run(capsys, "asymptotics", "--Z", "10", "--delta", "0.7")
        assert code == 1
        assert "2/pi" in err

    def test_failed_row_is_marked_and_exit_two(self, capsys, tmp_path, monkeypatch):
        from relatom import thomas_fermi as tf
        from relatom.errors import ShootingFailure

        real_solve = tf.solve

        def flaky(params, tol=1e-7):
            if params.Z == 20.0:
                raise ShootingFailure("forced")
            return real_solve(params, tol)

        monkeypatch.setattr(cli.tf, "solve", flaky)
        path = tmp_path / "rows.csv"
        code, _, err = run(capsys, "asymptotics", "--Z", "10", "20", "--csv", str(path))
        assert code == 2
        rows = path.read_text().splitlines()[1:]
        assert rows[0].endswith(",ok")
        assert rows[1].endswith(",failed:ShootingFailure")
        assert "nan" in rows[1]

    @pytest.mark.parametrize("flags", (
        ("--delta", "0"),
        ("--delta", "-0.3"),
        ("--delta", "nan"),
        ("--Z", "10", "0"),
        ("--Z", "-5"),
        ("--Z", "inf"),
    ))
    def test_bad_delta_or_z_is_usage_error(self, capsys, tmp_path, flags):
        path = tmp_path / "never.csv"
        argv = ("asymptotics",) + (() if "--Z" in flags else ("--Z", "10")) + flags
        code, _, err = run(capsys, *argv, "--csv", str(path))
        assert code == 1
        assert "must" in err
        assert not path.exists()

    @pytest.mark.parametrize("config", (
        {"z_values": ["ten"]},
        {"z_values": 10},
        {"z_values": []},
        {"delta": "0.5"},
        {"lambda": True},
        [["delta", 0.5]],
    ))
    def test_bad_config_value_is_usage_error(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        path = tmp_path / "never.csv"
        code, _, err = run(capsys, "asymptotics", "--config", str(cfg), "--csv", str(path))
        assert code == 1
        assert "config" in err
        assert not path.exists()

    @pytest.mark.parametrize("flags", (
        ("--lambda", "-1"),
        ("--lambda", "0"),
        ("--lambda", "inf"),
        ("--r", "2"),
        ("--r", "0.4"),
        ("--t", "0"),
        ("--s", "0.9"),
        ("--s", "nan"),
        ("--beta", "0.5"),
        ("--beta", "0"),
        ("--t", "0.6"),                 # t >= s = 0.55
    ))
    def test_bad_sweep_parameter_is_usage_error(self, capsys, tmp_path, flags):
        path = tmp_path / "never.csv"
        code, out, err = run(capsys, "asymptotics", "--Z", "10", *flags, "--csv", str(path))
        assert code == 1
        assert "invalid sweep parameters" in err
        assert not path.exists()
        assert out == ""

    def test_bad_sweep_parameter_from_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z_values": [10.0], "r": 2.0}))
        code, _, err = run(capsys, "asymptotics", "--config", str(cfg))
        assert code == 1
        assert "t < r < 1" in err

    # the default sweep and its lambda = 0.7 sibling, with every ramp sup
    # taken at the slope's clipped argmax, every quadrature summed by
    # numpy's pairwise sum, not a BLAS dot, and every end of the TF profile
    # integrated on its one continuation
    RECORDED = {
        (): """\
10.0,0.06366197723675814,-178630.0890889783,-82.81055817000342,0.0004635868379864842,11366.672781513433,-11371.944665382614,-5.271883869181993,ok
100.0,0.006366197723675814,-21912342.074829087,-17840.99392223586,0.0008141984029507268,139384.72294228684,-139498.3022371827,-113.57929489585196,ok
1000.0,0.0006366197723675814,-2777815917.2761416,-3843725.6210712926,0.0013837222247759153,1765965.5452054518,-1768412.5369353816,-2446.9917299298468,ok
10000.0,6.366197723675813e-05,-364071280338.1986,-828105581.7000341,0.0022745699164481684,23124778.722755972,-23177497.561447788,-52718.838691819925,ok
""",
        ("--lambda", "0.7"): """\
10.0,0.06366197723675814,-148261.09707626922,-82.02409735640515,0.0005532408634087599,9433.372770947472,-9438.594587166239,-5.2218162187690975,ok
100.0,0.006366197723675814,-18742206.286650676,-17671.55607631918,0.000942874910565141,119204.09037867122,-119316.59099873807,-112.50062006687266,ok
1000.0,0.0006366197723675814,-2443947128.05455,-3807221.3437665766,0.0015578165746970274,1553441.3119552704,-1555865.064340492,-2423.7523852216755,ok
10000.0,6.366197723675813e-05,-328558090903.6446,-820240973.5640516,0.0024964869113650945,20864439.541872844,-20916657.704060532,-52218.162187690985,ok
""",
    }

    @pytest.mark.parametrize("flags", list(RECORDED))
    def test_sweep_matches_the_recorded_csv(self, capsys, tmp_path, flags):
        path = tmp_path / "a.csv"
        code, _, _ = run(capsys, "asymptotics", "--Z", "10", "100", "1000", "10000", *flags,
                         "--csv", str(path))
        assert code == 0
        header, *rows = path.read_text().splitlines(keepends=True)
        assert header == ",".join(cli.ASYMPTOTICS_COLUMNS) + "\n"
        assert "".join(rows) == self.RECORDED[flags]  # every value bit for bit

    def test_rows_share_one_profile_and_one_c_phi(self, capsys, tmp_path):
        tf._solve_universal.cache_clear()
        bd._reference_c_phi.cache_clear()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        code, _, _ = run(capsys, "asymptotics", "--Z", "10", "25", "400",
                         "--lambda", "0.7", "--csv", str(first))
        assert code == 0
        assert tf._solve_universal.cache_info().misses == 1
        assert bd._reference_c_phi.cache_info().misses == 1
        code, _, _ = run(capsys, "asymptotics", "--Z", "10", "25", "400",
                         "--lambda", "0.7", "--csv", str(second))
        assert code == 0
        assert first.read_bytes() == second.read_bytes()
