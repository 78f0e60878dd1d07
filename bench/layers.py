"""Which package functions the traced run wraps, and the per-layer metrics
made from the spans and counters.

Layers are the package's modules: chol, factors, ep, nonlinear, eit.cem,
eit.mesh, mcmc and cli.  A function is wrapped where its caller looks it up:
in its own module when callers use the module attribute, and in the
importing module as well when a caller imported it by name
(``nonlinear.run_ep``, ``cli.run_nonlinear``, ``cli.run_chains``, ...).
Each metric is named ``<layer>.<function>.<stat>``; the stats are ``calls``,
``self_s`` (span minus child spans) and ``us_per_call`` (whole span per
call, in microseconds).
"""

from __future__ import annotations

from collections import Counter

from epinverse import chol, cli, ep, factors, mcmc, nonlinear
from epinverse.eit import cem
from epinverse.eit import mesh as meshmod

SKIP_REASONS = ("CavityInvalid", "DegenerateSupport", "NotPositiveDefinite", "DowndateFailed")


def _rank1_hook(tally):
    def hook(parent, args, kwargs, result):
        sign = args[2] if len(args) > 2 else kwargs.get("sign", 1)
        if sign < 0:
            tally["chol.rank1_update.downdates"] += 1
    return hook


def _run_ep_hook(tally):
    def hook(parent, args, kwargs, res):
        sites = args[1] if len(args) > 1 else kwargs["sites"]
        tally["ep.run_ep.sweeps"] += res.sweeps_used
        tally["ep.sites_visited"] += res.sweeps_used * len(sites)
        for s in res.skipped_sites:
            tally["ep.sites_skipped." + s.reason.split(":", 1)[0]] += 1
    return hook


def _mh_chain_hook(tally):
    def hook(parent, args, kwargs, res):
        cfg = args[0] if args else kwargs["cfg"]
        tally["mcmc.mh_chain.steps"] += cfg.steps
        tally["mcmc.accepted"] += round(res.acceptance_rate * cfg.steps)
        if parent == "mcmc.adapt_proposal":
            tally["mcmc.adapt_proposal.pilots"] += 1
    return hook


def register(tracer) -> Counter:
    """Register every wrapped function with the tracer; returns the counter
    the hooks fill."""
    tally: Counter = Counter()
    targets = [
        # (owner, attribute, layer name, full span?, hook)
        (cli, "main", "cli.main", True, None),
        (cli, "_write_vector_csv", "cli.write_csv", False, None),
        (cli, "_write_matrix_csv", "cli.write_csv", False, None),
        (cli, "_write_trace_csv", "cli.write_csv", False, None),
        (cli, "_write_data_csv", "cli.write_csv", False, None),
        (cli, "gen_disk_mesh", "eit.mesh.gen_disk_mesh", True, None),
        (cli, "read_mesh", "eit.mesh.read_mesh", True, None),
        (meshmod, "read_mesh", "eit.mesh.read_mesh", True, None),
        (cli, "write_mesh", "eit.mesh.write_mesh", True, None),
        (cli, "run_nonlinear", "nonlinear.run_nonlinear", True, None),
        (nonlinear, "linearize", "nonlinear.linearize", True, None),
        (nonlinear.LinearModel, "evaluate", "nonlinear.model_evaluate", False, None),
        (nonlinear.LinearModel, "jacobian", "nonlinear.model_jacobian", False, None),
        (cem.EITForwardModel, "evaluate", "nonlinear.model_evaluate", False, None),
        (cem.EITForwardModel, "jacobian", "nonlinear.model_jacobian", False, None),
        (nonlinear, "run_ep", "ep.run_ep", True, _run_ep_hook(tally)),
        (ep, "run_ep", "ep.run_ep", True, _run_ep_hook(tally)),
        (ep, "assemble_global", "ep.assemble_global", False, None),
        (ep, "cavity", "ep.cavity", False, None),
        (ep, "site_moments", "ep.site_moments", False, None),
        (ep, "update_site", "ep.update_site", False, None),
        (ep, "refresh_global", "ep.refresh_global", False, None),
        (factors, "moments_laplace_positivity", "factors.moments_laplace_positivity", False, None),
        (factors, "trunc_gauss_std", "factors.trunc_gauss_std", False, None),
        (factors, "_mills_tail", "factors.mills_tail", False, None),
        (factors, "_far_tail_two_sided", "factors.far_tail", False, None),
        (chol, "rank1_update", "chol.rank1_update", False, _rank1_hook(tally)),
        (chol, "cholesky", "chol.cholesky", False, None),
        (chol, "solve_lower", "chol.solve_lower", False, None),
        (chol, "solve", "chol.solve", False, None),
        (chol, "inverse", "chol.inverse", False, None),
        (cem, "solve_forward", "eit.cem.solve_forward", False, None),
        (cem, "_assemble", "eit.cem.assemble", False, None),
        (cem, "cho_factor", "eit.cem.cho_factor", False, None),
        (cem, "cho_solve", "eit.cem.cho_solve", False, None),
        (cem, "jacobian", "eit.cem.jacobian", False, None),
        (cli, "run_chains", "mcmc.run_chains", True, None),
        (mcmc, "run_chains", "mcmc.run_chains", True, None),
        (cli, "adapt_proposal", "mcmc.adapt_proposal", True, None),
        (mcmc, "mh_chain", "mcmc.mh_chain", True, _mh_chain_hook(tally)),
        (mcmc, "log_posterior", "mcmc.log_posterior", False, None),
    ]
    for owner, attr, name, span, hook in targets:
        tracer.add(owner, attr, name, span=span, hook=hook)
    return tally


# Every wrapped name; each gets calls, self_s and us_per_call.
LAYER_NAMES = (
    "chol.rank1_update", "chol.cholesky", "chol.solve_lower", "chol.solve", "chol.inverse",
    "ep.cavity", "ep.site_moments", "ep.update_site", "ep.refresh_global",
    "ep.assemble_global", "ep.run_ep",
    "factors.moments_laplace_positivity", "factors.trunc_gauss_std", "factors.mills_tail",
    "factors.far_tail",
    "nonlinear.run_nonlinear", "nonlinear.linearize", "nonlinear.model_evaluate",
    "nonlinear.model_jacobian",
    "eit.cem.solve_forward", "eit.cem.assemble", "eit.cem.cho_factor", "eit.cem.cho_solve",
    "eit.cem.jacobian",
    "eit.mesh.gen_disk_mesh", "eit.mesh.read_mesh", "eit.mesh.write_mesh",
    "mcmc.run_chains", "mcmc.adapt_proposal", "mcmc.mh_chain", "mcmc.log_posterior",
    "cli.main", "cli.write_csv",
)

# Reconciliation tolerance: the self times partition the root spans, so only
# float rounding separates their sum from the traced wall time.
RECONCILE_TOL_S = 1e-6


def metrics(tracer, tally: Counter, untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and details for the report;
    ``untraced_s`` is the untraced set-up plus repeat that the traced ones
    are compared with."""
    totals = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES:
        calls, total_s, self_s = totals.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_s, "s")
        out[name + ".us_per_call"] = (1e6 * total_s / calls if calls else 0.0, "us")

    counts = tracer.counts
    out["chol.rank1_update.downdates"] = (tally["chol.rank1_update.downdates"], "count")
    out["chol.rank1_update.failed"] = (counts["chol.rank1_update.failed"], "count")
    out["factors.moments_laplace_positivity.failed"] = (
        counts["factors.moments_laplace_positivity.failed"], "count")
    out["ep.run_ep.sweeps"] = (tally["ep.run_ep.sweeps"], "count")
    skipped = sum(v for k, v in tally.items() if k.startswith("ep.sites_skipped."))
    out["ep.sites_skipped"] = (skipped, "count")
    for r in SKIP_REASONS:
        out["ep.sites_skipped." + r] = (tally["ep.sites_skipped." + r], "count")
    visited = tally["ep.sites_visited"]
    out["ep.site_refresh_ratio"] = ((visited - skipped) / visited if visited else 0.0, "ratio")

    outers = totals.get("nonlinear.linearize", (0,))[0]
    in_outer = sum(
        c for (n, parent), (c, _, _) in tracer.agg.items()
        if n == "eit.cem.cho_factor" and _under(tracer, parent, "nonlinear.run_nonlinear")
    )
    out["eit.cem.cho_factor.calls_per_outer"] = (in_outer / outers if outers else 0.0, "count")
    steps = tally["mcmc.mh_chain.steps"]
    out["mcmc.mh_chain.steps"] = (steps, "count")
    out["mcmc.adapt_proposal.pilots"] = (tally["mcmc.adapt_proposal.pilots"], "count")
    out["mcmc.acceptance_ratio"] = (tally["mcmc.accepted"] / steps if steps else 0.0, "ratio")

    roots = tracer.roots()
    traced_s = sum(r["end"] - r["start"] for r in roots)
    remainder_s = sum(r["self_s"] for r in roots)
    layer_self_s = sum(totals[n][2] for n in totals)
    out["trace.traced_wall_s"] = (traced_s, "s")
    out["trace.untraced_wall_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.remainder_s"] = (remainder_s, "s")
    out["trace.layer_self_s"] = (layer_self_s, "s")

    unknown = set(totals) - set(LAYER_NAMES)
    detail = {
        "reconciled": abs(layer_self_s + remainder_s - traced_s) <= RECONCILE_TOL_S and not unknown,
        "skipped_sites_by_reason": {
            k.rsplit(".", 1)[1]: v for k, v in tally.items() if k.startswith("ep.sites_skipped.")
        },
        "trace": tracer.dump(),
    }
    return out, detail


def _under(tracer, span_id: int, name: str) -> bool:
    """Whether span ``span_id`` is, or lies inside, a span called ``name``."""
    while span_id is not None and span_id >= 0:
        span = tracer.spans[span_id]
        if span["name"] == name:
            return True
        span_id = span["parent"]
    return False
