"""Batch-driver tests: config handling, reports, exit codes, determinism."""

import builtins
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wpcurv
from wpcurv import checks, cli, curvature, fuchsian, qdiff, surface, surrogate, wedge
from wpcurv.errors import ConvergenceFailure, SolverFailure
from wpcurv.fuchsian import act, derivative, regular_group

from oracle import REGULAR


def test_config_validation():
    cfg = cli.RunConfig(mesh_level=0)
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = cli.RunConfig(stage="bogus")
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = cli.RunConfig(seeds=0)
    with pytest.raises(ValueError):
        cfg.validate()
    for field in ("mesh_level", "seeds"):
        for value in (2.5, True):
            with pytest.raises(ValueError, match=field):
                cli.RunConfig(**{field: value}).validate()
    cli.RunConfig().validate()


def test_config_fields():
    """The four settings a run varies; everything else is a constant."""
    assert [f.name for f in dataclasses.fields(cli.RunConfig)] == [
        "mesh_level", "seeds", "out", "stage"]


def test_config_hash_sensitivity():
    a, b = cli.RunConfig(), cli.RunConfig(mesh_level=2)
    assert a.hash() != b.hash()
    assert a.hash() == cli.RunConfig().hash()
    assert len(a.hash()) == 16
    # where the artifacts are written is not part of the computation
    assert cli.RunConfig(out="elsewhere").hash() == a.hash()
    assert cli.RunConfig(mesh_level=2, out="elsewhere").hash() == b.hash() != a.hash()
    # a stage's hash reads only the settings that stage reads
    assert cli.RunConfig(seeds=5).hash("surface") == a.hash("surface") != b.hash("surface")
    assert b.hash("surrogate") == a.hash("surrogate") != cli.RunConfig(seeds=5).hash("rankone")


@pytest.mark.parametrize("argv", [["--mesh-level", "9"], ["--mesh-level", "7"],
                                  ["--mesh-level", "6"], ["--mesh-level", "7000"],
                                  ["--mesh-level", "1", "--seeds", "0"], ["--seeds", "-1"],
                                  ["--mesh-level", "1", "--seeds", str(cli.SEEDS_CAP + 1)]],
                         ids=["mesh-level-9", "mesh-level-7", "mesh-level-6", "mesh-level-7000",
                              "seeds-0", "seeds-minus-1", "seeds-over-cap"])
def test_invalid_config_is_a_usage_error(argv, tmp_path, capsys):
    """A setting `validate` rejects exits 2 with one short error line, writing
    nothing.  Level 6 is within MAX_LEVEL, but the Green kernel's level
    policy refuses it: GREEN_MAX_LEVEL is 5.  Level 7000 is refused by
    comparison, not by printing a size it would need.  A trial
    count over SEEDS_CAP would stack more surrogate models than a run can hold."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", *argv, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = captured.err.splitlines()[-1]
    assert line.startswith("wpcurv: error: ")
    assert len(line) < 200
    assert not out.exists()


@pytest.mark.parametrize("argv", [["spectrum", "--seeds", "2"],
                                  ["surrogate", "--mesh-level", "3"],
                                  ["rankone", "--mesh-level", "3"]],
                         ids=["spectrum-seeds", "surrogate-mesh-level", "rankone-mesh-level"])
def test_subcommands_take_only_the_flags_their_stage_reads(argv, tmp_path, capsys):
    """`spectrum` draws no trials and `surrogate` and `rankone` build no
    mesh, so each rejects the flag it would ignore, writing nothing."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["existing-file", "empty", "under-a-file"])
def test_bad_out_is_a_usage_error(kind, tmp_path, capsys):
    """An --out that cannot be made a directory exits 2 with one error
    line and no traceback, and leaves the file in its way untouched."""
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    out = {"existing-file": str(blocker), "empty": "",
           "under-a-file": str(blocker / "o")}[kind]
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--mesh-level", "1", "--out", out])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("wpcurv: error: --out ")
    assert blocker.read_text() == "keep"


def test_run_takes_every_flag(tmp_path):
    """`run` reads the mesh level and the trial count, and writes to --out
    (it exits 1 on the rankone check, criterion 8)."""
    out = tmp_path / "o"
    assert cli.main(["run", "--mesh-level", "2", "--seeds", "2", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["config"] == {"mesh_level": 2, "seeds": 2, "out": str(out), "stage": "all"}
    assert json.loads((out / "surrogate.json").read_text())["num_seeds"] == 2



def test_each_subcommand_runs_its_stage_alone(tmp_path, capsys):
    """A stage's subcommand records that stage in the report and writes its
    files and the report, nothing else."""
    for stage, entry in cli.STAGES.items():
        out = tmp_path / stage
        level = ["--mesh-level", "1"] if "mesh_level" in entry.settings else []
        cli.main([entry.command, *level, "--out", str(out)])
        assert json.loads((out / "report.json").read_text())["config"]["stage"] == stage
        assert {p.name for p in out.iterdir()} == {"report.json", *entry.files}
    capsys.readouterr()


@pytest.mark.parametrize("level", [1, 2, 3])
def test_artifact_bytes_are_pinned(level, tmp_path, monkeypatch):
    """A default run into `o` writes its nine files byte for byte as
    `artifact_digests.json` records them (report.json's `out` is fixed by
    running in tmp_path).  A change that moves bits on purpose updates the
    digests; the failure names each file that moved."""
    monkeypatch.chdir(tmp_path)
    cli.run(cli.RunConfig(mesh_level=level, out="o"))
    with open(os.path.join(os.path.dirname(__file__), "artifact_digests.json")) as fh:
        pinned = json.load(fh)[str(level)]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "o").iterdir()}
    assert sorted(digests) == sorted(pinned)
    moved = [name for name in sorted(pinned) if digests[name] != pinned[name]]
    assert not moved, "level %d: %s moved" % (level, ", ".join(moved))


def test_explain_requires_checks():
    with pytest.raises(ValueError):
        cli.explain({"checks": {}})


@pytest.mark.parametrize(
    "content",
    [None, "not json", '{"checks": {}}', "[]", '{"checks": [1]}',
     '{"checks": {"a": {"pass": true}}}', '{"checks": {"a": 1}}',
     '{"checks": {"a": {"pass": "false", "residual": 0, "tolerance": 0, "description": ""}}}'],
    ids=["missing", "not-json", "no-checks", "not-object", "checks-not-object",
         "entry-lacks-fields", "entry-not-object", "pass-not-boolean"])
def test_explain_bad_report_is_a_usage_error(content, tmp_path, capsys):
    """A report that cannot be read, parsed or explained exits 2 with one
    error line, as a usage error, not 1 as a failed check."""
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["explain", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("wpcurv: error: " + str(path))


def test_rankone_stage_and_explain(tmp_path):
    """The quaternionic stage runs standalone; its check fails honestly
    (the claimed curvature-expansion vanishing is false), so the run
    reports all_pass = False."""
    cfg = cli.RunConfig(stage="rankone", seeds=5, out=str(tmp_path / "out"))
    report = cli.run(cfg)
    assert set(report["checks"]) == {"quaternionic_null_vector"}
    assert not report["checks"]["quaternionic_null_vector"]["pass"]
    assert not report["all_pass"]
    text = cli.explain(report)
    assert len(text.splitlines()) == 1
    assert "FAIL" in text
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved["config_hash"] == cfg.hash()
    stamped = json.loads((tmp_path / "out" / "rankone_m1.json").read_text())
    assert stamped["config_hash"] == cfg.hash()


def test_rankone_exit_code(tmp_path):
    code = cli.main(["rankone", "--seeds", "3", "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    [command, "--stage", "rankone"] for command in ("run", "spectrum", "surrogate", "rankone")
] + [["run", "--config", "f"], ["run", "--tau-rel", "1e-8"]],
    ids=["run", "spectrum", "surrogate", "rankone", "run-config", "run-tau-rel"])
def test_subcommands_reject_stage(argv, tmp_path, capsys):
    """The subcommand names the stage and flags set the rest: no subcommand
    takes `--stage`, a config file or a tolerance."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_surrogate_stage(tmp_path):
    cfg = cli.RunConfig(stage="surrogate", seeds=3, out=str(tmp_path / "out"))
    report = cli.run(cfg)
    # the sweep's kernel dimensions are the stage's one check
    assert set(report["checks"]) == {"surrogate_spectrum"}
    assert report["all_pass"]
    payload = json.loads((tmp_path / "out" / "surrogate.json").read_text())
    assert payload["num_seeds"] == 3
    assert payload["all_counts_ok"]
    assert payload["config_hash"] == cfg.hash()


def test_surrogate_sign_flip_is_a_failed_check(tmp_path, monkeypatch):
    """A model with a positive mode fails `surrogate_spectrum`; the stage
    still completes and writes its sweep."""
    random_surrogate = surrogate.random_surrogate

    def flipped(*args):
        model = random_surrogate(*args)
        model.kernel = -model.kernel
        return model

    monkeypatch.setattr(surrogate, "random_surrogate", flipped)
    report = cli.run(cli.RunConfig(stage="surrogate", seeds=2, out=str(tmp_path / "o")))
    assert list(report["checks"]) == ["surrogate_spectrum"]
    assert not report["checks"]["surrogate_spectrum"]["pass"]
    payload = json.loads((tmp_path / "o" / "surrogate.json").read_text())
    assert not payload["all_counts_ok"]
    assert all(r["counts"][2] > 0 for r in payload["per_seed"])
    # the residual shows the positive mode, not only the kernel excess
    residual = report["checks"]["surrogate_spectrum"]["residual"]
    assert residual["worst_eigenvalue_margin"] > max(r["tau"] for r in payload["per_seed"])
    assert residual["worst_kernel_dim_excess"] == payload["worst_kernel_dim_excess"]


def test_block_and_kernel_checks_do_not_depend_on_seeds(tmp_path):
    """The surface stage makes no random draw and its hash does not read
    `seeds`, so `seeds` changes none of its artifacts' bytes or checks."""
    runs = []
    for seeds in (1, 20):
        out = tmp_path / str(seeds)
        report = cli.run(cli.RunConfig(stage="surface", mesh_level=2, seeds=seeds,
                                       out=str(out)))
        artifacts = {name: (out / name).read_bytes() for name in cli.STAGES["surface"].files}
        assert len(report["checks"]) == 9
        runs.append((artifacts, report["checks"]))
    assert runs[0] == runs[1]


def test_spectrum_and_run_write_the_same_surface_files(tmp_path, capsys):
    """`spectrum` and `run --seeds 3` run one surface stage at level 2, so
    they write its five files byte for byte alike."""
    cli.main(["spectrum", "--mesh-level", "2", "--out", str(tmp_path / "s")])
    cli.main(["run", "--mesh-level", "2", "--seeds", "3", "--out", str(tmp_path / "r")])
    capsys.readouterr()
    names = cli.STAGES["surface"].files
    assert len(names) == 5
    for name in names:
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "r" / name).read_bytes()


def test_surface_stage_and_determinism(tmp_path):
    """Two surface runs of one config write bit-identical artifacts, and
    they report exactly the registry's surface-stage checks, all passing."""
    cfg = cli.RunConfig(stage="surface", mesh_level=2, seeds=3,
                        out=str(tmp_path / "a"))
    r1 = cli.run(cfg)
    first = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    r2 = cli.run(cfg)
    assert r1["checks"] == r2["checks"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()} == first
    assert r1["all_pass"]
    assert set(r1["checks"]) == set(checks.CHECK_DESCRIPTIONS) - {
        "surrogate_spectrum", "quaternionic_null_vector"}
    assert len(r1["checks"]) == 9
    assert set(first) == {"group.json", "mesh.json", "green.json", "tensor.json",
                          "spectrum.json", "report.json"}
    text = cli.explain(r1)
    assert len(text.splitlines()) == 9


def test_decagon_runs_the_surface_stage():
    """The regular decagon, a second genus-2 surface, runs the whole stage:
    at L2 and L3 every check passes with counts (9, 6, 0) and chi = -2, its
    basis is automorphic to 1e-10 on all 10 sides, and lambda_min(Q)
    converges, its L2 -> L3 change 3-5 times smaller than its L1 -> L2 one
    (-1.4373, -1.4600, -1.4662 at L1-L3)."""
    group = regular_group(REGULAR["decagon"])
    basis, z = qdiff.build_qdiff_basis(group), qdiff.side_points(group)
    for s, g in enumerate(group.side_pairings):
        lhs = qdiff.theta(basis, act(g, z[s]), group.rotation_order) * derivative(g, z[s]) ** 2
        base = qdiff.theta(basis, z[s], group.rotation_order)
        assert np.all(np.abs(lhs - base).max(axis=1) <= 1e-10 * np.abs(base).max(axis=1))
    lam_min = []
    for level in (1, 2, 3):
        results = {}
        stage = cli.surface_stage(group, level, results)
        spec = stage["spectrum"]
        lam_min.append(spec.eigenvalues.min())
        if level > 1:
            assert set(results) == set(checks.CHECK_DESCRIPTIONS) - {
                "surrogate_spectrum", "quaternionic_null_vector"}
            assert all(c["pass"] for c in results.values())
            assert (spec.num_negative, spec.num_zero, spec.num_positive) == (9, 6, 0)
            assert stage["surface"].euler_characteristic() == -2
    coarse, fine = lam_min[0] - lam_min[1], lam_min[1] - lam_min[2]
    assert 3 <= coarse / fine <= 5


def test_session_fixtures_are_the_run(pipe3, tmp_path):
    """The `pipe3` fixture is the stage a level-3 surface run runs: the same
    check records as its report.json, and spectrum.json's eigenvalues."""
    out = tmp_path / "o"
    cli.run(cli.RunConfig(stage="surface", mesh_level=3, out=str(out)))
    report, spec = (json.loads((out / name).read_text())
                    for name in ("report.json", "spectrum.json"))
    assert report["checks"] == json.loads(json.dumps(pipe3["checks"]))
    assert spec["spectrum"]["eigenvalues"] == pipe3["spectrum"].eigenvalues.tolist()


def test_one_config_into_two_directories_writes_the_same_artifacts(tmp_path):
    """The stage artifacts do not depend on `out`; the report differs only
    in the `out` it records."""
    for name in "ab":
        cli.run(cli.RunConfig(mesh_level=2, seeds=3, out=str(tmp_path / name)))
    a, b = ({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()} for name in "ab")
    assert set(a) == set(b) and len(a) == 9
    assert all(a[name] == b[name] for name in a if name != "report.json")
    ra, rb = (json.loads(files["report.json"]) for files in (a, b))
    assert ra["config"].pop("out") == str(tmp_path / "a")
    assert rb["config"].pop("out") == str(tmp_path / "b")
    assert ra == rb


def test_run_writes_each_artifact_once(tmp_path, monkeypatch):
    """Every artifact is JSON, opened once, for writing, and never read back;
    it is json's compact encoding, stamped as its last key with the hash of
    the settings its own stage reads, and the report with that of the run's."""
    real_open = builtins.open
    opened = []

    def spy(file, mode="r", *args, **kwargs):
        opened.append((os.path.basename(str(file)), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    config = cli.RunConfig(mesh_level=2, seeds=3, out=str(tmp_path / "o"))
    report = cli.run(config)
    monkeypatch.undo()
    stage_of = {name: stage for stage, entry in cli.STAGES.items() for name in entry.files}
    hashes = {stage: config.hash(stage) for stage in ("all", *cli.STAGES)}
    assert hashes["surrogate"] == hashes["rankone"]         # both read `seeds` alone
    assert len({hashes["all"], hashes["surface"], hashes["surrogate"]}) == 3
    assert report["config_hash"] == hashes["all"] == config.hash()
    names = sorted(p.name for p in (tmp_path / "o").iterdir())
    assert len(names) == 9 and all(name.endswith(".json") for name in names)
    assert set(names) == {"report.json"}.union(*(entry.files for entry in cli.STAGES.values()))
    for name in names:
        assert [mode for seen, mode in opened if seen == name] == ["w"]
        text = (tmp_path / "o" / name).read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload)
        if name != "report.json":
            assert list(payload)[-1] == "config_hash"
            assert payload["config_hash"] == hashes[stage_of[name]]


def test_surface_stage_draws_nothing(tmp_path, monkeypatch):
    """With numpy's generator made to raise, the surface stage still runs
    and passes every check."""
    def no_draw(*args, **kwargs):
        raise AssertionError("the surface stage made a random draw")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    report = cli.run(cli.RunConfig(stage="surface", mesh_level=2, out=str(tmp_path / "o")))
    assert report["all_pass"]
    assert len(report["checks"]) == 9


@pytest.mark.parametrize("level", [2, 3, 4])
def test_default_surface_run_two_paths_agree(level, tmp_path):
    """The surface stage passes `tensor_assembly`, and the tensor and
    integral paths' matrices agree to roundoff in the 2-norm (the basis
    makes R real, where the two paths are the same sums)."""
    report = cli.run(cli.RunConfig(stage="surface", mesh_level=level,
                                   out=str(tmp_path / "o")))
    check = report["checks"]["tensor_assembly"]
    assert check["pass"]
    assert check["residual"]["two_path_rel"] <= 1e-12


def test_spectrum_command_prints_csv(tmp_path, capsys):
    """`spectrum` prints an index,eigenvalue table of spectrum.json's
    eigenvalues, each to 17 significant digits."""
    code = cli.main(["spectrum", "--mesh-level", "2", "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 16
    lams = json.loads((tmp_path / "o" / "spectrum.json").read_text())["spectrum"]["eigenvalues"]
    assert lines[1:] == ["%d,%.17g" % (i, lam) for i, lam in enumerate(lams)]


def test_stage_artifacts_hold_no_check_record(tmp_path):
    """tensor.json and spectrum.json hold the stage's results and its stamp
    only: their check records live in report.json alone."""
    out = tmp_path / "o"
    report = cli.run(cli.RunConfig(stage="surface", mesh_level=2, out=str(out)))
    tensor, spec = (json.loads((out / name).read_text())
                    for name in ("tensor.json", "spectrum.json"))
    assert set(tensor) == {"n", "entries", "config_hash"}
    assert set(spec) == {"spectrum", "config_hash"}
    assert set(report["checks"]["tensor_symmetries"]["residual"]) == {
        "holo_swap", "anti_swap", "conjugation"}
    assert report["checks"]["operator_nonpositive_kernel"]["residual"]["counts"] == \
        spec["spectrum"]["counts"]


def test_failed_stage_replaces_a_stale_report(tmp_path, monkeypatch, capsys):
    """A WpcurvError in a stage is recorded as a failed entry and the report
    is written over an earlier passing one; `spectrum` then prints the
    explanation, not a stale spectrum.json's table, and exits 1 without a
    traceback."""
    out = tmp_path / "o"
    out.mkdir()
    (out / "report.json").write_text(json.dumps({"checks": {}, "all_pass": True}))
    (out / "spectrum.json").write_text(json.dumps({"spectrum": {"eigenvalues": [-1.0]}}))

    def fail(group):
        raise ConvergenceFailure("planted")

    monkeypatch.setattr(qdiff, "build_qdiff_basis", fail)
    code = cli.main(["spectrum", "--mesh-level", "2", "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["all_pass"]
    entry = report["checks"]["surface_stage"]
    assert list(report["checks"]) == ["surface_stage"]
    assert entry["pass"] is False
    assert entry["residual"] == "ConvergenceFailure: planted"
    assert entry["tolerance"] is None
    assert "surface stage" in entry["description"]
    assert "surface_stage" not in checks.CHECK_DESCRIPTIONS
    captured = capsys.readouterr()
    assert captured.out.startswith("surface_stage")
    assert "FAIL" in captured.out and "index,eigenvalue" not in captured.out
    assert not (out / "spectrum.json").exists()
    assert "Traceback" not in captured.err


def test_failed_stage_leaves_none_of_its_files(tmp_path, monkeypatch):
    """After a passing surface run, a failing one removes every file the
    stage writes, its own and the earlier run's: only report.json stays."""
    cfg = cli.RunConfig(stage="surface", mesh_level=2, out=str(tmp_path / "o"))
    cli.run(cfg)
    written = {p.name for p in (tmp_path / "o").iterdir()}
    assert written == {"report.json", *cli.STAGES["surface"].files}

    def fail(group):
        raise ConvergenceFailure("planted")

    monkeypatch.setattr(qdiff, "build_qdiff_basis", fail)
    assert not cli.run(cfg)["all_pass"]
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["report.json"]


def test_failed_stage_keeps_the_checks_it_reached(tmp_path, monkeypatch):
    """A stage that raises after some checks completed reports them with the
    failed stage entry, and still leaves none of its files."""
    def fail(*args, **kwargs):
        raise SolverFailure("planted")

    monkeypatch.setattr(wedge, "integral_matrices", fail)
    report = cli.run(cli.RunConfig(stage="surface", mesh_level=2, out=str(tmp_path / "o")))
    assert list(report["checks"]) == ["resolvent_operator", "green_kernel",
                                      "tensor_symmetries", "surface_stage"]
    assert all(report["checks"][name]["pass"] for name in list(report["checks"])[:3])
    assert report["checks"]["surface_stage"]["residual"] == "SolverFailure: planted"
    assert not report["all_pass"]
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["report.json"]


def test_unreduced_point_is_a_failed_stage(tmp_path, monkeypatch):
    """A point `reduce_to_domain` cannot carry into the polygon is a
    ReductionFailure of the surface stage, recorded in the written report,
    and the stage leaves none of its files."""
    monkeypatch.setattr(fuchsian, "REDUCE_STEPS", 1)
    report = cli.run(cli.RunConfig(mesh_level=2, out=str(tmp_path / "o")))
    entry = report["checks"]["surface_stage"]
    assert entry["pass"] is False
    assert entry["residual"].startswith("ReductionFailure: ")
    assert "not reduced in 1 steps" in entry["residual"]
    written = {p.name for p in (tmp_path / "o").iterdir()}
    assert "report.json" in written and not written & set(cli.STAGES["surface"].files)


def test_nan_basis_coefficient_is_a_failed_stage(tmp_path, monkeypatch):
    """A NaN coefficient from the automorphy solve is a ConvergenceFailure
    of the stage, recorded in the report, which is the only file left."""
    solve = qdiff._solve

    def planted(points, k, order):
        a, sv = solve(points, k, order)
        a[1] = np.nan
        return a, sv

    monkeypatch.setattr(qdiff, "_solve", planted)
    report = cli.run(cli.RunConfig(stage="surface", mesh_level=2, out=str(tmp_path / "o")))
    assert list(report["checks"]) == ["surface_stage"]
    assert report["checks"]["surface_stage"]["residual"].startswith("ConvergenceFailure")
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["report.json"]


def test_nan_resolvent_solve_is_a_failed_stage(tmp_path, monkeypatch):
    """An LU solve that returns a NaN is a SolverFailure of the stage, not
    an error from a later eigensolve, and leaves only the report."""
    class NanLU:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, b):
            x = self.lu.solve(b)
            x.flat[0] = np.nan
            return x

    factorization = surface.DiscreteSurface.factorization
    monkeypatch.setattr(surface.DiscreteSurface, "factorization",
                        lambda self: NanLU(factorization(self)))
    report = cli.run(cli.RunConfig(stage="surface", mesh_level=2, out=str(tmp_path / "o")))
    assert not report["all_pass"]
    assert report["checks"]["surface_stage"]["residual"].startswith("SolverFailure")
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["report.json"]


def test_surface_stage_takes_one_spectrum(tmp_path, monkeypatch):
    """The kernel analysis reads the stage's one spectrum of Q."""
    calls = []
    spectrum = wedge.spectrum
    monkeypatch.setattr(wedge, "spectrum",
                        lambda *a, **kw: calls.append(a[0]) or spectrum(*a, **kw))
    report = cli.run(cli.RunConfig(stage="surface", mesh_level=2, out=str(tmp_path / "o")))
    assert report["all_pass"]
    assert len(calls) == 1


def test_explain_command(tmp_path, capsys):
    cfg = cli.RunConfig(stage="rankone", seeds=2, out=str(tmp_path / "o"))
    cli.run(cfg)
    code = cli.main(["explain", str(tmp_path / "o" / "report.json")])
    assert code == 0
    assert "quaternionic_null_vector" in capsys.readouterr().out


@pytest.mark.parametrize("level", [2, 3])
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, level):
    """Two fresh `wpcurv run --mesh-level L` processes, one BLAS thread and
    two, both started before either is waited on: every artifact is byte
    for byte the same, and report.json differs only in the `out` it
    records.  Both exit 1, on the quaternionic null-vector check alone.
    Level 3 is the CLI's default, where the Green report's `rowsum_err`
    passes through eleven blocked BLAS products."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wpcurv.__file__)))
    procs = [subprocess.Popen([sys.executable, "-m", "wpcurv.cli", "run",
                               "--mesh-level", str(level), "--out", str(tmp_path / threads)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=dict(env, OPENBLAS_NUM_THREADS=threads))
             for threads in ("1", "2")]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")
    one, two = ({p.name: p.read_bytes() for p in (tmp_path / t).iterdir()} for t in ("1", "2"))
    assert set(one) == set(two) and len(one) == 9
    assert all(one[name] == two[name] for name in one if name != "report.json")
    r1, r2 = (json.loads(files["report.json"]) for files in (one, two))
    assert (r1["config"].pop("out"), r2["config"].pop("out")) == (str(tmp_path / "1"),
                                                                  str(tmp_path / "2"))
    assert r1 == r2
    assert [name for name, c in r1["checks"].items() if not c["pass"]] == [
        "quaternionic_null_vector"]


def test_run_builds_one_surface_table(tmp_path, monkeypatch):
    """A level-3 run hands the integral path the tensor path's pairing table
    itself, and builds two n^4 tables in all: that one and the surrogate's
    stack."""
    built, tables, handed = [], [], []
    kernel_table, pairing_table = curvature.kernel_table, curvature.pairing_table
    integral_matrices = wedge.integral_matrices

    def counted(mu, W):
        built.append(np.shape(mu))
        return kernel_table(mu, W)

    monkeypatch.setattr(curvature, "kernel_table", counted)
    monkeypatch.setattr(surrogate, "kernel_table", counted)
    monkeypatch.setattr(curvature, "pairing_table",
                        lambda *a: tables.append(pairing_table(*a)) or tables[-1])
    monkeypatch.setattr(wedge, "integral_matrices",
                        lambda T: handed.append(T) or integral_matrices(T))
    cli.run(cli.RunConfig(mesh_level=3, out=str(tmp_path / "o")))
    assert len(tables) == len(handed) == 1 and handed[0] is tables[0]
    assert built == [(3, 1022), (20, 3, 40)]    # P, then the surrogate's 20 models


def test_run_solves_the_green_rows_in_one_pass(tmp_path, monkeypatch):
    """A level-3 run takes the Green report and green.json from one pass of
    ceil(81 / 8) = 11 solve blocks, and never solves them again for the
    dense `GreenKernel.matrix`."""
    passes = []
    orbit_blocks = surface._orbit_blocks

    def counted(surf, reps):
        passes.append([])
        for lo, block in orbit_blocks(surf, reps):
            passes[-1].append(len(block))
            yield lo, block

    monkeypatch.setattr(surface, "_orbit_blocks", counted)
    cli.run(cli.RunConfig(mesh_level=3, out=str(tmp_path / "o")))
    assert passes == [[8] * 10 + [1]]


def test_run_prints_the_table_explain_reads_back(tmp_path):
    """The check table a level-2 run prints is the one `wpcurv explain`
    prints from its report.json: every residual is a plain value."""
    report = cli.run(cli.RunConfig(mesh_level=2, out=str(tmp_path / "o")))
    saved = json.loads((tmp_path / "o" / "report.json").read_text())
    assert cli.explain(report) == cli.explain(saved)


def test_explain_into_closed_pipe_is_quiet(tmp_path):
    """`wpcurv explain report.json | head` with the reader gone: no traceback."""
    report = {"checks": {"c%d" % i: {"pass": True, "residual": 0, "tolerance": 0,
                                     "description": "x" * 200} for i in range(2000)}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wpcurv.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "wpcurv.cli", "explain", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 0


def test_package_import_loads_no_numpy_and_algebra_no_scipy():
    """In a fresh interpreter, `import wpcurv` loads no submodule and no
    numpy, and the algebra (`checks`, `surrogate` and `rankone`, with the
    `curvature` and `wedge` they import) loads no scipy: only `surface`
    imports it."""
    code = ("import json, sys, wpcurv\n"
            "first = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'wpcurv'))\n"
            "import wpcurv.checks, wpcurv.surrogate, wpcurv.rankone\n"
            "print(json.dumps([first, sorted(m for m in sys.modules\n"
            "                                if m.split('.')[0] == 'scipy')]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wpcurv.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert json.loads(proc.stdout) == [["wpcurv"], []]
