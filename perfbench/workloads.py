"""The two benchmark workloads: seeded inputs, one op each, output checks.

An op is what a user waits for: one ``fdr2d analyze`` call through
``fdr2d.cli.main`` (read the matrix files, build the statistic tensor,
search, write ``result.json`` and ``result.features.tsv``) or one
``simulate`` replication through ``fdr2d.sim.run_method_comparison``.

Every workload is a class with ``setup(seed, workdir, golden)``, which
makes the inputs before any timing starts and returns a session;
``golden`` is the seed's entry in ``goldens.json`` or None. A session has
``run(i)`` (the timed part of op ``i``), ``check(i, out)`` (a list of
problems, empty when the output is correct) and ``pin(i, out)`` (the
value the golden file stores for op ``i``).

The checker reads the program's output files with plain Python, not
with ``fdr2d.io``, so a fault in the reader cannot hide one in the
writer.
"""

import json
import math
import os

import numpy as np

from fdr2d import cli, engine, io, sim

# t1, t2 and fdp_estimate must match a pin to this tolerance, relative
# to the value and, as an absolute floor, to the scale of its statistic
# (the largest |value| in that statistic's column of features.tsv; 1 for
# fdp_estimate), so a threshold near zero is not held to rounding noise.
# Rejected sets and counts must match exactly.
REL_TOL = 1e-9


def _close(a, b, scale):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL * scale)


class AnalyzeWorkload:
    """``fdr2d analyze`` on matrices drawn from one simulation generator."""

    kind = "analyze"

    def __init__(self, name, dgp, n, m, b, stat, pi=0.1, l=0.3, q=0.1):
        self.name = name
        self.dgp, self.n, self.m, self.b = dgp, n, m, b
        self.stat, self.pi, self.l, self.q = stat, pi, l, q
        self.sampler = "residual-perm"

    def sizes(self):
        return {
            "op": "fdr2d.cli.main analyze",
            "dgp": self.dgp, "n": self.n, "m": self.m, "b": self.b,
            "stat": self.stat, "sampler": self.sampler, "q": self.q,
            "pi": self.pi, "l": self.l, "method": "mf2d-fdr", "grid": "quantile:100",
        }

    def setup(self, seed, workdir, golden=None):
        config = sim.SimConfig(
            dgp=self.dgp, n=self.n, m=self.m, pi=self.pi, l=self.l, reps=1, seed=seed
        )
        dataset, _ = sim.gen_dataset(config, np.random.default_rng(seed))
        os.makedirs(workdir, exist_ok=True)
        paths = {k: os.path.join(workdir, f"{k}.tsv") for k in ("x", "y", "z")}
        io.save_matrix(paths["x"], dataset.x, ["x"])
        io.save_matrix(paths["y"], dataset.y, list(dataset.feature_names))
        io.save_matrix(paths["z"], dataset.z, ["z"])
        out = os.path.join(workdir, "result.json")
        argv = [
            "analyze",
            "--x", paths["x"], "--y", paths["y"], "--z", paths["z"],
            "--stat", self.stat, "--sampler", self.sampler,
            "--b", str(self.b), "--q", str(self.q), "--seed", str(seed),
            "--out", out,
        ]
        return _AnalyzeSession(self, argv, out, golden)


class _AnalyzeSession:
    def __init__(self, workload, argv, out, golden):
        self.workload = workload
        self.argv = argv
        self.out = out
        self.features = os.path.splitext(out)[0] + ".features.tsv"
        # every op reruns the same input, so without a golden the first
        # op's output is the reference for the rest
        self.golden = golden

    def run(self, i):
        return cli.main(self.argv)

    def pin(self, i, out):
        doc = self._read_json()
        # float() also reads the "inf" that an infeasible search writes
        return {
            "t1": float(doc["t1"]),
            "t2": float(doc["t2"]),
            "fdp_estimate": doc["fdp_estimate"],
            "n_rejected": doc["n_rejected"],
            "rejected": sorted(doc["rejected_features"]),
        }

    def _read_json(self):
        with open(self.out, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def _read_features(self):
        with open(self.features, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split("\t")
        if header != ["feature", "t_marginal", "t_conditional", "fbar", "rejected"]:
            raise ValueError(f"unexpected features header {header}")
        rows = []
        for line in lines[1:]:
            name, tm, tc, fb, rej = line.split("\t")
            rows.append((name, float(tm), float(tc), float(fb), int(rej)))
        return rows

    def check(self, i, out):
        if out != 0:
            return [f"cli.main returned {out}"]
        w = self.workload
        doc = self._read_json()
        rows = self._read_features()
        problems = []
        if (doc["n"], doc["m"], len(rows)) != (w.n, w.m, w.m):
            problems.append(f"shape n={doc['n']} m={doc['m']} rows={len(rows)}")
        t1, t2 = float(doc["t1"]), float(doc["t2"])
        zero_var = set(doc["zero_variance_features"])
        dominating = {
            name for name, tm, tc, _, _ in rows
            if name not in zero_var and tm >= t1 and tc >= t2
        }
        flagged = {name for name, _, _, _, rej in rows if rej == 1}
        rejected = doc["rejected_features"]
        if set(rejected) != dominating or len(rejected) != len(dominating):
            problems.append("rejected_features differ from the rows dominating (t1, t2)")
        if flagged != dominating:
            problems.append("features.tsv rejected flags differ from the rows dominating (t1, t2)")
        if doc["n_rejected"] != len(dominating):
            problems.append(f"n_rejected {doc['n_rejected']} != {len(dominating)}")
        if doc["q"] != w.q:
            problems.append(f"q {doc['q']} echoed, {w.q} asked")
        if not doc["fdp_estimate"] <= w.q:
            problems.append(f"fdp_estimate {doc['fdp_estimate']} exceeds q {w.q}")
        if any(not 0.0 <= fb <= 1.0 for _, _, _, fb, _ in rows):
            problems.append("fbar outside [0, 1]")
        got = self.pin(i, out)
        if self.golden is None:
            self.golden = got
        scales = {
            "t1": max((abs(tm) for _, tm, _, _, _ in rows), default=0.0),
            "t2": max((abs(tc) for _, _, tc, _, _ in rows), default=0.0),
            "fdp_estimate": 1.0,
        }
        return problems + _compare_analyze(got, self.golden, scales)


def _compare_analyze(got, want, scales):
    problems = []
    if got["rejected"] != want["rejected"] or got["n_rejected"] != want["n_rejected"]:
        problems.append(
            f"rejected set differs from the pin ({got['n_rejected']} vs {want['n_rejected']})"
        )
    for key in ("t1", "t2", "fdp_estimate"):
        if not _close(got[key], want[key], scales[key]):
            problems.append(f"{key} {got[key]!r} differs from the pin {want[key]!r}")
    return problems


class SimulateWorkload:
    """One ``simulate`` replication per op, all methods on one shared tensor."""

    kind = "simulate"
    methods = ("mf2d-fdr", "mf2d-fwer", "mf1d", "exchangeable-path", "ordered-grid")

    def __init__(self, name, dgp, n, m, b, q=0.1, spline_df=5):
        self.name = name
        self.dgp, self.n, self.m, self.b, self.q = dgp, n, m, b, q
        self.spline_df = spline_df

    def sizes(self):
        return {
            "op": "fdr2d.sim.run_method_comparison, one replication",
            "dgp": self.dgp, "n": self.n, "m": self.m, "b": self.b,
            "stat": "rv", "sampler": "residual-perm", "spline_df": self.spline_df,
            "q": self.q, "rho": 1.0, "pi": 0.1, "l": 0.3, "methods": list(self.methods),
            "grid": "quantile:100", "path_steps": 100,
        }

    def config(self, seed):
        """SimConfig for one replication, seeded by ``seed``."""
        return sim.SimConfig(
            dgp=self.dgp, n=self.n, m=self.m, reps=1, seed=seed,
            procedure=engine.ProcedureConfig(q=self.q),
            statistic=engine.StatisticSpec(kind="rv", spline_df=self.spline_df),
            sampler=engine.ResamplePlan(
                "residual-perm", b_count=self.b, seed=0, spline_df=self.spline_df
            ),
        )

    def setup(self, seed, workdir, golden=None):
        return _SimulateSession(self, seed, golden or [])


class _SimulateSession:
    def __init__(self, workload, seed, golden):
        self.workload = workload
        self.seed = seed
        self.golden = golden  # per-op pins for the first ops of the seed

    def run(self, i):
        config = self.workload.config(sim.replication_seed(self.seed, i))
        return sim.run_method_comparison(config, list(self.workload.methods))

    def pin(self, i, out):
        return {method: int(out[method].per_rep_rejections[0]) for method in out}

    def check(self, i, out):
        w = self.workload
        problems = []
        if set(out) != set(w.methods):
            return [f"methods {sorted(out)} returned, expected {sorted(w.methods)}"]
        for method, s in out.items():
            if s.reps_completed != 1:
                problems.append(f"{method}: {s.reps_completed} replications completed")
            if not (0.0 <= s.fdr <= 1.0 and 0.0 <= s.power <= 1.0):
                problems.append(f"{method}: fdr {s.fdr} or power {s.power} outside [0, 1]")
        counts = self.pin(i, out)
        if any(not 0 <= c <= w.m for c in counts.values()):
            problems.append(f"rejection counts {counts} outside [0, m]")
        # The FWER-feasible set lies inside the FDR-feasible one, and the
        # 1-D grid (t1 = 0) is a sub-grid of the 2-D one; without a pi0
        # correction the two path methods walk the same path by one rule.
        if counts["mf2d-fwer"] > counts["mf2d-fdr"] or counts["mf1d"] > counts["mf2d-fdr"]:
            problems.append(f"mf2d-fdr rejects fewer than a sub-search: {counts}")
        if counts["exchangeable-path"] != counts["ordered-grid"]:
            problems.append(f"path methods disagree: {counts}")
        if i < len(self.golden) and counts != self.golden[i]:
            problems.append(f"rejection counts {counts} differ from the pin {self.golden[i]}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        AnalyzeWorkload(
            "analyze-binomial", dgp=9, n=100, m=30, b=19, stat="glm:binomial", pi=0.2, l=1.0
        ),
        SimulateWorkload("simulate-rv", dgp=3, n=100, m=1000, b=100),
    )
}

# Simulate pins cover this many ops per seed; later ops get the
# internal checks only.
SIMULATE_PINNED_OPS = 100
