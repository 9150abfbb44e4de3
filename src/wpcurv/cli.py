"""Batch driver: build the surface, run pipeline stages, emit reports.

A run is fully determined by a RunConfig (the subcommand names the stage,
flags set the rest).  Every artifact is JSON and embeds the SHA-256 hash
of the settings its stage reads (the report, of those its stages read),
so an output can be traced back to its configuration wherever it is
written, and one stage writes the same bytes whichever subcommand runs
it.  A stage's results live in its artifacts and its check records in
the report alone.  Numeric outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import checks, curvature, qdiff, rankone, surface, surrogate, wedge
from .artifacts import write_json
from .checks import CHECK_DESCRIPTIONS  # noqa: F401  (read as cli.CHECK_DESCRIPTIONS)
from .errors import WpcurvError
from .fuchsian import enumerate_words  # noqa: F401  (read as cli.enumerate_words)
from .fuchsian import octagon_group


#: the stage each subcommand runs
SUBCOMMAND_STAGES = {"run": "all", "spectrum": "surface", "surrogate": "surrogate",
                     "rankone": "rankone"}
#: the RunConfig fields each subcommand takes as flags: those its stage reads
SUBCOMMAND_FLAGS = {"run": ("mesh_level", "seeds", "out"), "spectrum": ("mesh_level", "out"),
                    "surrogate": ("seeds", "out"), "rankone": ("seeds", "out")}
#: sample points of each surrogate model, and its number of basis fields
SURROGATE_POINTS = 40
SURROGATE_FIELDS = 3
#: most trials a run takes: `wpcurv surrogate` stacks its models, and peaks at 633 MB here
SEEDS_CAP = 10_000
#: the files each stage writes; a stage that fails removes all of its own
STAGE_ARTIFACTS = {"surface": ("group.json", "mesh.json", "green.json", "tensor.json",
                               "spectrum.json"),
                   "surrogate": ("surrogate.json",),
                   "rankone": ("rankone_m1.json", "rankone_m2.json")}


@dataclass
class RunConfig:
    mesh_level: int = 3
    seeds: int = 20             # trials: surrogate models and rankone samples
    out: str = "wpcurv_out"
    stage: str = "all"          # "all" or a key of STAGE_ARTIFACTS

    def validate(self):
        surface.check_level(self.mesh_level)
        if self.stage in ("all", "surface"):
            surface.check_green_level(self.mesh_level)
        if not 1 <= self.seeds <= SEEDS_CAP:
            raise ValueError("seeds must be between 1 and %d" % SEEDS_CAP)
        if self.stage not in ("all", *STAGE_ARTIFACTS):
            raise ValueError("unknown stage %r" % self.stage)

    def hash(self, stage: str | None = None) -> str:
        """Hash of the settings `stage` (by default this run's) reads: the
        flags of the subcommand that runs it, but `out`."""
        command = next(c for c, s in SUBCOMMAND_STAGES.items() if s == (stage or self.stage))
        blob = json.dumps({k: getattr(self, k) for k in SUBCOMMAND_FLAGS[command] if k != "out"},
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def surface_stage(group, level: int, results: dict) -> dict:
    """Group -> basis -> mesh -> fields -> Gram -> Green kernel -> P -> R ->
    Q -> spectrum of the surface of `group` at mesh level `level`, each check
    entered into `results` as it completes; returns the stage's objects by name."""
    basis_q = qdiff.build_qdiff_basis(group)
    surf = surface.build_mesh(group, level)
    fields = qdiff.beltrami_from_qdiff(basis_q, surf)
    fields, gram, _ = qdiff.orthonormalize(fields, qdiff.gram_matrix(fields, surf))
    results["resolvent_operator"] = checks.resolvent_operator(surf)

    green = surface.green_kernel(surf)
    results["green_kernel"] = checks.green_kernel(green)

    P = curvature.pairing_table(fields, surf)
    R = curvature.curvature_tensor(P)
    results["tensor_symmetries"] = checks.tensor_symmetries(R)

    Q = wedge.assemble_Q(R)
    spec = wedge.spectrum(Q)
    results["tensor_assembly"] = checks.tensor_assembly(R, gram, Q, P)   # w G w f = w D f
    results.update(checks.block_checks(Q, spec.tau))
    results["operator_nonpositive_kernel"] = checks.operator_nonpositive_kernel(Q, spec)
    return {"group": group, "surface": surf, "fields": fields, "gram": gram, "green": green,
            "pairings": P, "tensor": R, "Q": Q, "spectrum": spec}


def run_surface_stage(config: RunConfig, results: dict):
    """`surface_stage` of the octagon at the configured level, then its five artifacts."""
    stage = surface_stage(octagon_group(2), config.mesh_level, results)
    cfg_hash = config.hash("surface")
    path = lambda name: os.path.join(config.out, name)
    stage["group"].export_json(path("group.json"), config_hash=cfg_hash)
    surface.export_mesh_json(stage["surface"], path("mesh.json"), config_hash=cfg_hash)
    surface.export_green(stage["green"], path("green.json"), config_hash=cfg_hash)
    curvature.export_tensor_json(stage["tensor"], path("tensor.json"), config_hash=cfg_hash)
    wedge.export_spectrum_json(stage["spectrum"], path("spectrum.json"), config_hash=cfg_hash)


def run_surrogate_stage(config: RunConfig, results: dict):
    """Synthetic-kernel models -> their sign counts."""
    summary = surrogate.run_seed_sweep(
        range(config.seeds), SURROGATE_POINTS, SURROGATE_FIELDS)
    write_json(os.path.join(config.out, "surrogate.json"), summary, config.hash("surrogate"))
    results["surrogate_spectrum"] = checks.surrogate_spectrum(summary)


def run_rankone_stage(config: RunConfig, results: dict):
    """Quaternionic model, m = 1 and 2 -> the special 2-vector check."""
    reports = [rankone.lemma51_check(m, config.seeds) for m in (1, 2)]
    for rep in reports:
        write_json(os.path.join(config.out, "rankone_m%d.json" % rep["m"]), rep,
                   config.hash("rankone"))
    results["quaternionic_null_vector"] = checks.quaternionic_null_vector(reports)


def run(config: RunConfig) -> dict:
    """Execute the selected stages; returns the verification report, which
    is always written.  A stage raising a WpcurvError keeps the checks it
    completed, adds the failed entry `<stage>_stage`, the error its residual,
    and leaves no `STAGE_ARTIFACTS`."""
    config.validate()
    os.makedirs(config.out, exist_ok=True)
    results = {}
    for stage, runner in (("surface", run_surface_stage),
                          ("surrogate", run_surrogate_stage),
                          ("rankone", run_rankone_stage)):
        if config.stage in ("all", stage):
            try:
                runner(config, results)
            except WpcurvError as exc:
                for name in STAGE_ARTIFACTS[stage]:
                    if os.path.exists(path := os.path.join(config.out, name)):
                        os.remove(path)
                results[stage + "_stage"] = {
                    "pass": False, "residual": "%s: %s" % (type(exc).__name__, exc),
                    "tolerance": None,
                    "description": "the %s stage raised before its checks completed" % stage}

    report = {
        "config": asdict(config),
        "config_hash": config.hash(),
        "checks": results,
        "all_pass": all(c["pass"] for c in results.values()),
    }
    write_json(os.path.join(config.out, "report.json"), report)
    return report


def explain(report: dict) -> str:
    """One line per check: status, residual, tolerance, description; a
    ValueError if the report is not an object of checks holding all four, `pass` a bool."""
    if not isinstance(report, dict):
        raise ValueError("report is not an object")
    entries = report.get("checks")
    if not entries or not isinstance(entries, dict):
        raise ValueError("report contains no checks")
    fields = ("pass", "residual", "tolerance", "description")
    lines = []
    for name, c in entries.items():
        if not (isinstance(c, dict) and all(key in c for key in fields)
                and isinstance(c["pass"], bool)):
            raise ValueError("check %r needs a boolean pass and %s" % (name, ", ".join(fields[1:])))
        status = "pass" if c["pass"] else "FAIL"
        lines.append("%-28s %-4s residual=%s tol=%s  %s"
                     % (name, status, c["residual"], c["tolerance"],
                        c["description"]))
    return "\n".join(lines)


def _print(text: str):
    """Print and flush; a reader that closed the pipe early (`| head`) ends
    the output quietly, with stdout sent to devnull so the flush at exit
    raises nothing either."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wpcurv",
        description="curvature-operator laboratory for closed hyperbolic surfaces (runs the octagon)")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = asdict(RunConfig())      # a field a subcommand does not take keeps these
    for name, flags in SUBCOMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for field in flags:
            p.add_argument("--" + field.replace("_", "-"), dest=field,
                           type=type(defaults[field]), default=defaults[field])
    sub.add_parser("explain").add_argument("report", help="path to a report.json")

    args = parser.parse_args(argv)

    if args.command == "explain":
        try:
            with open(args.report) as fh:
                text = explain(json.load(fh))
        except (OSError, ValueError) as exc:
            parser.error("%s: %s" % (args.report, getattr(exc, "strerror", None) or exc))
        _print(text)
        return 0

    config = RunConfig(stage=SUBCOMMAND_STAGES[args.command],
                       **{field: getattr(args, field) for field in SUBCOMMAND_FLAGS[args.command]})
    try:
        config.validate()
        os.makedirs(config.out, exist_ok=True)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error("--out %r: %s" % (config.out, exc.strerror or exc))

    report = run(config)
    if args.command == "spectrum" and "surface_stage" not in report["checks"]:
        with open(os.path.join(config.out, "spectrum.json")) as fh:
            lams = json.load(fh)["spectrum"]["eigenvalues"]
        _print("\n".join(["index,eigenvalue"]
                          + ["%d,%.17g" % (i, lam) for i, lam in enumerate(lams)]))
    else:
        _print(explain(report))
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
