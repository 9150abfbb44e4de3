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
from collections import namedtuple
from dataclasses import asdict, dataclass

from . import checks, curvature, qdiff, rankone, surface, surrogate, wedge
from .artifacts import write_json
from .checks import CHECK_DESCRIPTIONS  # noqa: F401  (read as cli.CHECK_DESCRIPTIONS)
from .errors import WpcurvError
from .fuchsian import enumerate_words  # noqa: F401  (read as cli.enumerate_words)
from .fuchsian import octagon_group


#: sample points of each surrogate model, and its number of basis fields
SURROGATE_POINTS = 40
SURROGATE_FIELDS = 3
#: most trials a run takes: `wpcurv surrogate` stacks its models, and peaks at 633 MB here
SEEDS_CAP = 10_000
#: a stage: the subcommand that runs it alone, the RunConfig fields it reads
#: (its flags but --out, and what its files' config_hash hashes) and the files it writes
Stage = namedtuple("Stage", "command settings files")
#: every stage, in the order `wpcurv run` takes them all with the union of their
#: settings; `run_<key>_stage` runs each, and one that fails removes all its files
STAGES = {"surface": Stage("spectrum", ("mesh_level",), ("group.json", "mesh.json", "green.json",
                                                         "tensor.json", "spectrum.json")),
          "surrogate": Stage("surrogate", ("seeds",), ("surrogate.json",)),
          "rankone": Stage("rankone", ("seeds",), ("rankone_m1.json", "rankone_m2.json"))}


@dataclass
class RunConfig:
    mesh_level: int = 3
    seeds: int = 20             # trials: surrogate models and rankone samples
    out: str = "wpcurv_out"
    stage: str = "all"          # "all" or a key of STAGES

    def validate(self):
        for name in ("mesh_level", "seeds"):
            if type(getattr(self, name)) is not int:
                raise ValueError("%s must be an integer" % name)
        surface.check_level(self.mesh_level)
        if self.stage in ("all", "surface"):
            surface.check_green_level(self.mesh_level)
        if not 1 <= self.seeds <= SEEDS_CAP:
            raise ValueError("seeds must be between 1 and %d" % SEEDS_CAP)
        if self.stage not in ("all", *STAGES):
            raise ValueError("unknown stage %r" % self.stage)

    def hash(self, stage: str | None = None) -> str:
        """Hash of the settings `stage` (by default this run's) reads: its
        STAGES entry's, or for "all" those of every stage."""
        stage = stage or self.stage
        blob = json.dumps({k: getattr(self, k) for s, entry in STAGES.items()
                           if stage in ("all", s) for k in entry.settings}, sort_keys=True).encode()
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
    surf = stage["surface"]     # nodes[k] is [Re, Im] of node k
    write_json(path("mesh.json"), {"level": surf.level,
                                   "nodes": surf.nodes[:, None].view(float).tolist(),
                                   "weights": surf.weights.tolist(),
                                   "triangles": surf.triangles.tolist()}, cfg_hash)
    write_json(path("green.json"), {"report": stage["green"].report}, cfg_hash)
    R = stage["tensor"]     # entries[i][j][k][l] is [Re, Im] of R[i, j, k, l]
    write_json(path("tensor.json"), {"n": R.n, "entries": R.entries[..., None].view(float).tolist()},
               cfg_hash)
    write_json(path("spectrum.json"), {"spectrum": stage["spectrum"].to_dict()}, cfg_hash)


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
    and leaves none of the stage's STAGES files."""
    config.validate()
    os.makedirs(config.out, exist_ok=True)
    results = {}
    for stage, entry in STAGES.items():
        if config.stage in ("all", stage):
            try:        # by name, so that a wrapper set on the module is the one called
                globals()["run_%s_stage" % stage](config, results)
            except WpcurvError as exc:
                for name in entry.files:
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
    union = dict.fromkeys(k for entry in STAGES.values() for k in entry.settings)
    commands = {"run": ("all", union), **{e.command: (s, e.settings) for s, e in STAGES.items()}}
    for name, (stage, settings) in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(stage=stage)
        for field in (*settings, "out"):
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

    config = RunConfig(**{k: v for k, v in vars(args).items() if k != "command"})
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
