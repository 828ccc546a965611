"""Seeded workloads of the benchmark: their op lists, how each op runs, and its oracle.

A pass is a fixed list of ops generated once from the seed.  Each op runs
through fracoc's public API; its check runs afterwards, outside the timed
region, and returns a failure message or None.  Checks never reuse the
code path under test: marches are checked through the difference
operators, the invariant through its cumulative-sum form, and so on.

Why each workload exists:

- ``sweep``: the CLI path.  Outer passes of ``solve_pontryagin`` do almost
  all the work, with many passes (lq at alpha 0.25) beside few (solved).
  Each alpha set is run in full every pass, in seeded order, because one
  drawn alpha would make the work of a pass depend on the seed: the lq
  solve alone takes about three times longer at 0.25 than at 0.5.
- ``march``: lone Cauchy marches, far above any N threshold of ``sweep``;
  d = 1 is overhead-bound, d = 2 memory-sum-bound.  Each op draws alpha
  from its own narrow band of [0.3, 0.9], so the per-node iteration count,
  and with it the work, stays nearly the same from seed to seed.
- ``invariant``: ``noether`` and the difference operators on synthetic
  array-bound inputs next to a callback-bound rotation solution.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

from fracoc import cli, frac_cauchy, gl_ops, noether, pontryagin, problems

WORKLOADS = ("sweep", "march", "invariant")
SKEW = np.array([[0.0, -1.0], [1.0, 0.0]])
CONVERGE_N = (100, 200, 400, 800)


class Workload:
    """Ops of one workload and seed, with the set-up data they need."""

    def __init__(self, name: str, seed: int, tmpdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.tmpdir = tmpdir
        self.rng = np.random.default_rng(seed)
        self.data = {}            # op id -> arrays and callbacks built at set-up
        self.control_error = 0.0  # sweep: worst finest-grid error seen
        self.ops = getattr(self, f"_{name}_ops")()
        for alpha, n in self.weights():
            gl_ops.gl_coefficients(alpha, n)

    def weights(self):
        """(alpha, N) pairs whose difference weights the ops use."""
        pairs = set()
        for op in self.ops:
            for n in op["n_list"] if "n_list" in op else (op["n"],):
                pairs.add((float(op["alpha"]), int(n)))
        return sorted(pairs)

    def describe(self):
        """The generated op list, without its arrays."""
        return [{k: v for k, v in op.items() if k not in ("argv", "out", "csv")}
                for op in self.ops]

    def run(self, op):
        return getattr(self, f"_run_{op['kind']}")(op)

    def check(self, op, out):
        return getattr(self, f"_check_{op['kind']}")(op, out)

    # -- sweep ----------------------------------------------------------------
    def _sweep_ops(self):
        ops = []

        def cli_op(command, example, alpha, **sizes):
            oid = f"{command}-{example}-{alpha:g}"
            out = os.path.join(self.tmpdir, f"{oid}.csv")
            argv = [command, "--example", example, "--alpha", repr(float(alpha)),
                    "--out", out]
            for key, value in sizes.items():
                text = ",".join(map(str, value)) if key == "n_list" else str(value)
                argv += ["--" + key.replace("_", "-"), text]
            op = {"id": oid, "kind": command, "example": example,
                  "alpha": float(alpha), **sizes, "argv": argv, "out": out}
            ops.append(op)
            return op

        for alpha in self.rng.permutation([0.5, 0.75]):
            cli_op("converge", "solved", alpha, n_list=CONVERGE_N)
        cli_op("converge", "lq", 1.0, n_list=CONVERGE_N)
        for alpha in self.rng.permutation([0.75, 1.0]):
            cli_op("noether", "rotation", alpha, n=400)
        for alpha in self.rng.permutation([0.25, 0.5]):
            solve = cli_op("solve", "lq", alpha, n=200)
            oid = f"gateaux-lq-{alpha:g}"
            self.data[oid] = self.rng.normal(size=(201, 1))
            ops.append({"id": oid, "kind": "gateaux", "example": "lq",
                        "alpha": float(alpha), "n": 200, "csv": solve["out"],
                        "direction": "standard normal per node"})
        return ops

    @staticmethod
    def _cli(op):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = cli.main(op["argv"])
        return code, text.getvalue()

    _run_converge = _run_noether = _run_solve = _cli

    @staticmethod
    def _exit_failure(out):
        code, text = out
        if code != 0:
            return f"exit code {code}: {text.strip()[-300:]}"
        return None

    def _check_converge(self, op, out):
        failure = self._exit_failure(out)
        if failure:
            return failure
        with open(op["out"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        order = float(lines[-1].split("=")[1])
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        finest = max(rows, key=lambda r: int(r[0]))
        self.control_error = max(self.control_error, float(finest[2]))
        if not 0.8 <= order <= 1.2:
            return f"fitted order {order} outside [0.8, 1.2]"
        return None

    def _check_noether(self, op, out):
        failure = self._exit_failure(out)
        if failure:
            return failure
        inv = np.loadtxt(op["out"], delimiter=",", skiprows=1, ndmin=2)[:, 2]
        drift = float(np.max(np.abs(inv - inv[0])))
        peak = float(np.max(np.abs(inv)))
        if not drift <= 1e-8 * (1.0 + peak):
            return f"invariant drift {drift:.3e} above 1e-8 * (1 + {peak:.3e})"
        return None

    def _check_solve(self, op, out):
        return self._exit_failure(out)

    def _run_gateaux(self, op):
        table = np.loadtxt(op["csv"], delimiter=",", skiprows=1, ndmin=2)
        problem = problems.build_example(op["example"], op["alpha"], op["n"])
        u = gl_ops.TimeSeq(table[:, 2:2 + problem.m])
        ubar = gl_ops.TimeSeq(self.data[op["id"]])
        return pontryagin.gateaux_derivative(problem, u, ubar)

    def _check_gateaux(self, op, dj):
        sup = float(np.max(np.abs(self.data[op["id"]][1:])))
        if not abs(dj) <= 1e-6 * sup:
            return f"|dJ| = {abs(dj):.3e} above 1e-6 * sup|ubar| = {1e-6 * sup:.3e}"
        return None

    # -- march ----------------------------------------------------------------
    def _march_ops(self):
        u = self.rng.uniform
        specs = (("left", 1, 25600, (0.6, 0.7)), ("left", 2, 6400, (0.3, 0.4)),
                 ("right", 1, 25600, (0.85, 0.9)), ("right", 2, 6400, (0.45, 0.55)))
        ops = []
        for side, d, n, band in specs:
            op = {"id": f"{side}-d{d}-n{n}", "kind": side, "d": d, "n": n,
                  "alpha": float(u(*band)), "omega": float(u(1.0, 5.0)),
                  "start": [float(v) for v in u(-1.0, 1.0, d)]}
            if side == "left" and d == 1:
                op["K"] = float(u(0.5, 1.0))
                op["rhs"] = "-K tanh(x) + cos(omega t)"
            else:
                a = -np.diag(u(0.4, 0.9, d)) + np.triu(u(-0.3, 0.3, (d, d)), 1)
                op["A"] = a.tolist()
                op["b"] = u(-1.0, 1.0, d).tolist()
                op["rhs"] = "A x + b cos(omega t)"
            self._march_callbacks(op)
            ops.append(op)
        return ops

    def _march_callbacks(self, op):
        grid = gl_ops.Grid(0.0, 1.0, op["n"])
        omega = op["omega"]
        # each field takes one node (d,) in the march and all nodes (N+1, d)
        # in the check
        if "K" in op:
            k_tanh, ones = op["K"], np.ones(1)

            def field(x, t):
                return -k_tanh * np.tanh(x) + np.multiply.outer(np.cos(omega * t), ones)

            lipschitz = k_tanh
        else:
            a, b = np.array(op["A"]), np.array(op["b"])

            def field(x, t):
                return x @ a.T + np.multiply.outer(np.cos(omega * t), b)

            lipschitz = float(np.linalg.norm(a, 2))
        if op["kind"] == "right":
            forcing = np.multiply.outer(np.cos(omega * grid.times), b)

            def rhs(x, k):
                return a @ x + forcing[k]

        else:
            rhs = frac_cauchy.CauchyRhs(field, lipschitz)
        self.data[op["id"]] = {"grid": grid, "field": field, "rhs": rhs,
                               "lipschitz": lipschitz}

    def _run_left(self, op):
        d = self.data[op["id"]]
        return frac_cauchy.solve_left_cauchy(op["alpha"], d["grid"], d["rhs"],
                                             np.array(op["start"]))

    def _run_right(self, op):
        d = self.data[op["id"]]
        return frac_cauchy.solve_right_cauchy(op["alpha"], d["grid"], d["rhs"],
                                              d["lipschitz"], np.array(op["start"]))

    def _march_residual(self, op, seq, delta, rows):
        """h^alpha times the discrete-equation defect, relative to the solution."""
        d = self.data[op["id"]]
        grid = d["grid"]
        diff = delta(op["alpha"], grid, seq, caputo=True).values
        field = d["field"](seq.values, grid.times)
        defect = grid.h ** op["alpha"] * np.max(np.abs(diff[rows] - field[rows]))
        scale = max(1.0, float(np.max(np.abs(seq.values))))
        if not defect <= 1e-10 * scale:
            return f"march defect {defect:.3e} above 1e-10 * {scale:.3e}"
        return None

    def _check_left(self, op, seq):
        return self._march_residual(op, seq, gl_ops.delta_minus, slice(1, None))

    def _check_right(self, op, seq):
        return self._march_residual(op, seq, gl_ops.delta_plus, slice(0, -1))

    # -- invariant ------------------------------------------------------------
    def _invariant_ops(self):
        u = self.rng.uniform
        ops = []
        for d, n in ((1, 6400), (2, 3200)):
            pair = f"pair-d{d}-n{n}"
            g = self.rng.normal(size=(n + 1, d))
            p = self.rng.normal(size=(n + 1, d))
            p[n] = 0.0
            alpha = float(u(0.25, 0.95))
            self.data[pair] = (gl_ops.Grid(0.0, 1.0, n), gl_ops.TimeSeq(g),
                               gl_ops.TimeSeq(p))
            for kind in ("conserved", "transfer"):
                ops.append({"id": f"{kind}-{pair}", "kind": kind, "pair": pair,
                            "d": d, "n": n, "alpha": alpha})
        ops.sort(key=lambda op: op["kind"])

        alpha = float(u(0.7, 0.8))
        problem = problems.build_example("rotation", alpha, 800)
        solution = pontryagin.solve_pontryagin(problem)
        gen = gl_ops.TimeSeq(solution.Q.values @ SKEW.T)
        self.data["rotation"] = (problem.grid, gen, solution.P)
        self.data["problem"] = (problem, problems.rotation_groups(), solution)
        ops.append({"id": "conserved-rotation", "kind": "conserved",
                    "pair": "rotation", "d": 2, "n": 800, "alpha": alpha})
        ops.append({"id": "invariance-rotation", "kind": "invariance", "d": 2,
                    "n": 800, "alpha": alpha,
                    "s": [float(s) for s in u(-1.0, 1.0, 5)]})
        return ops

    def _run_conserved(self, op):
        grid, g, p = self.data[op["pair"]]
        return noether.conserved_quantity(op["alpha"], grid, g, p)

    def _check_conserved(self, op, inv):
        grid, g, p = self.data[op["pair"]]
        alpha, gv, pv = op["alpha"], g.values, p.values
        right_p = gl_ops.delta_plus(alpha, grid, p).values
        left_g = gl_ops.delta_minus(alpha, grid, g, caputo=True).values
        steps = grid.h ** alpha * (np.einsum("kd,kd->k", gv[1:], right_p[:-1])
                                   - np.einsum("kd,kd->k", left_g[1:], pv[:-1]))
        s0 = -alpha * float(gv[0] @ pv[0])
        ref = np.concatenate(([s0], s0 + np.cumsum(steps)))
        gap = float(np.max(np.abs(inv.values[:, 0] - ref)))
        scale = max(1.0, float(np.max(np.abs(ref))))
        if not gap <= 1e-10 * scale:
            return f"invariant differs from its cumulative sum by {gap:.3e}"
        return None

    def _run_transfer(self, op):
        grid, g, p = self.data[op["pair"]]
        return noether.transfer_residual(op["alpha"], grid, g, p)

    def _check_transfer(self, op, residual):
        grid, g, p = self.data[op["pair"]]
        scale = max(1.0, g.sup_norm() * p.sup_norm() / grid.h ** op["alpha"])
        if not residual <= 1e-10 * scale:
            return f"transfer residual {residual:.3e} above 1e-10 * {scale:.3e}"
        return None

    def _run_invariance(self, op):
        problem, groups, solution = self.data["problem"]
        return noether.invariance_residual(problem, groups, solution, op["s"])

    def _check_invariance(self, op, residual):
        problem, _, solution = self.data["problem"]
        scale = max(1.0, solution.Q.sup_norm() * solution.P.sup_norm()
                    / problem.grid.h ** op["alpha"])
        if not residual <= 1e-10 * scale:
            return f"invariance residual {residual:.3e} above 1e-10 * {scale:.3e}"
        return None
