"""The convergence map: `epinverse ep` on a fixed grid of 27 EIT problems,
in both sweep modes, one BLAS thread.

Every change to EP's step or stop policy is judged on this grid: a problem
that converges before the change must not crash or stop converging after it.

The problems are made through the CLI as tests/test_conductive_inclusion.py
makes them: one inversion mesh (target_nodes = 300, --seed 42) and, per
problem, a data mesh of ~1200 nodes with one disk inclusion at (0.05, 0.02),
radius 0.035, of value r * SIGMA_BG.  The grid is

    r in (0.07, 0.15, 0.25, 0.5, 2, 3, 4, 5.3, 8), noise seed in (42, 1, 2),

and `ep` runs with default keys and --seed 42.  The grid, the seeds and the
keys are fixed: do not drop or swap a problem.

Usage, from the root of a checkout:

    python3 tools/convergence_map.py --out map.json
    python3 tools/convergence_map.py --src other/checkout/src --out before.json
    python3 tools/convergence_map.py --out after.json --parent before.json

--src runs another checkout's package (for a before/after pair).  The JSON
holds one record per (problem, mode) and the totals per mode.  Inputs and
outputs go under --work (default: a temporary directory, removed at the
end).  With --parent, the map is judged against an earlier one: every
(problem, mode) that converged there and crashes or does not converge here
is printed, and the script exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

RATIOS = (0.07, 0.15, 0.25, 0.5, 2.0, 3.0, 4.0, 5.3, 8.0)
NOISE_SEEDS = (42, 1, 2)
MODES = ("parallel", "serial")
EP_SEED = 42


def _write_cfg(path: Path, **kv) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


def _run(main, command: str, cfg: str, out: Path, seed: int) -> tuple[int, dict]:
    code = main([command, "--config", cfg, "--out", str(out), "--seed", str(seed)])
    return code, json.loads((out / "summary.json").read_text())


def run_map(main, sigma_bg: float, work: Path) -> dict:
    code, _ = _run(main, "mesh", _write_cfg(work / "mesh.cfg", target_nodes=300), work, 42)
    if code != 0:
        sys.exit("error: the inversion mesh could not be made")
    records = []
    for ratio in RATIOS:
        for noise_seed in NOISE_SEEDS:
            synth = work / f"synth_r{ratio}_s{noise_seed}"
            cfg = _write_cfg(work / f"{synth.name}.cfg", fine_target_nodes=1200, inclusion_cx=0.05,
                             inclusion_cy=0.02, inclusion_radius=0.035,
                             inclusion_value=repr(ratio * sigma_bg))
            if _run(main, "synth", cfg, synth, noise_seed)[0] != 0:
                sys.exit(f"error: the data for r = {ratio}, noise seed {noise_seed} could not be made")
            for mode in MODES:
                out = work / f"ep_r{ratio}_s{noise_seed}_{mode}"
                cfg = _write_cfg(work / f"{out.name}.cfg", problem="eit", mesh=work / "mesh.txt",
                                 data=synth / "data.csv", ep_sweep_mode=mode)
                code, s = _run(main, "ep", cfg, out, EP_SEED)
                skipped = Counter(site["reason"].split(":", 1)[0] for site in s.get("skipped_sites", []))
                records.append({
                    "ratio": ratio,
                    "noise_seed": noise_seed,
                    "mode": mode,
                    "exit_code": code,
                    "error": s.get("error"),
                    "error_detail": s.get("error_detail"),
                    "converged": s.get("converged", False),
                    "outer_iterations": s.get("outer_iterations"),
                    "total_inner_sweeps": s.get("total_inner_sweeps"),
                    "skipped_by_reason": dict(sorted(skipped.items())),
                    "wall_time_s": s["wall_time_s"],
                })
                print(f"r = {ratio:<4} seed {noise_seed:<2} {mode:<8} exit {code} "
                      f"converged {records[-1]['converged']!s:<5} outer {records[-1]['outer_iterations']} "
                      f"sweeps {records[-1]['total_inner_sweeps']} {s.get('error') or ''}", file=sys.stderr)
    return {"records": records, "totals": _totals(records)}


def _totals(records: list[dict]) -> dict:
    totals = {}
    for mode in MODES:
        rs = [r for r in records if r["mode"] == mode]
        totals[mode] = {
            "converged": sum(r["converged"] for r in rs),
            "not_converged": sum(r["exit_code"] == 0 and not r["converged"] for r in rs),
            "errors": dict(Counter(r["error"] for r in rs if r["exit_code"] != 0)),
            "outer_iterations": sum(r["outer_iterations"] or 0 for r in rs),
            "inner_sweeps": sum(r["total_inner_sweeps"] or 0 for r in rs),
        }
    return totals


def _key(record: dict) -> tuple:
    return record["ratio"], record["noise_seed"], record["mode"]


def regressions(parent: list[dict], records: list[dict]) -> list[dict]:
    """The records of the (problem, mode) pairs that converged in ``parent``
    and do not in ``records``."""
    converged = {_key(r) for r in parent if r["converged"]}
    return [r for r in records if _key(r) in converged and not r["converged"]]


def main(argv=None) -> None:
    root = Path(__file__).resolve().parent.parent
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=root / "src", help="the source tree to import epinverse from")
    p.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    p.add_argument("--work", type=Path, default=None, help="directory for inputs and outputs")
    p.add_argument("--parent", type=Path, default=None, help="an earlier map to judge this one against")
    args = p.parse_args(argv)

    # one BLAS thread, set before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.src.resolve()))
    from epinverse.cli import main as cli_main
    from epinverse.eit import SIGMA_BG

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        result = run_map(cli_main, SIGMA_BG, work)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result["totals"]))
    if args.parent is not None:
        lost = regressions(json.loads(args.parent.read_text())["records"], result["records"])
        for r in lost:
            print(f"regressed: r = {r['ratio']}, noise seed {r['noise_seed']}, {r['mode']}: "
                  f"exit {r['exit_code']}, {r['error'] or 'not converged'}")
        if lost:
            sys.exit(1)


if __name__ == "__main__":
    main()
