"""The benchmark's workloads.

A workload builds its inputs from the seed in `setup` (that is set-up
time), then runs rounds.  A round is a fixed batch of operations, the same
in every round, so the share of failed operations does not depend on how
many rounds a run makes.  `check` compares one round's outputs with
oracles.py after the measurement; nothing here compares with a stored copy
of an earlier output.

mmlab functions are looked up on the module at call time, so the tracer's
wrappers, when installed, see every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import mmlab
import oracles
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
CHILD_TIMEOUT_S = 120


@dataclass
class Round:
    wall: float                # measured seconds
    corrected: float           # the same, rescaled to the reference host speed
    values: dict               # operation label -> output, for operations that ran
    errors: dict               # operation label -> error text, for those that failed
    layers: dict = field(default_factory=dict)  # traced rounds only


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _non_increasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


class InProcess:
    """Operations called in the measuring process; subclasses fill `ops`
    (label -> zero-argument callable) in setup."""

    in_process = True

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.ops = {}

    def round(self, clock, traced):
        values, errors = {}, {}
        for label, op in self.ops.items():
            t0 = time.perf_counter()
            try:
                values[label] = op()
            except Exception as e:  # counted as a failed operation
                errors[label] = f"{type(e).__name__}: {e}"
            clock.add(time.perf_counter() - t0)
        return Round(*clock.take(), values, errors)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- obsdist -------------------------------------------------------------------

class ObsDist(InProcess):
    """obs_distance from Levy-family members to the one-point space.  Every
    space has more than 12 points and at most 2048, so it is dense and the
    constant-fit kernel does the work.

    The cubes and symmetric groups are fixed objects; the seed is their
    search seed.  The biased product is pinned, weights and search seed
    both: its search keeps copies of one coupling that differ only by float
    rounding, and how many depends on the weights and the search seed (3 to
    8 at weights 0.35/0.65 over search seeds 0-11, none at 0.3/0.7), so a
    seeded product would make the cost a lottery.  The pinned input keeps
    six copies in every run: the waste is measured steadily, and a fix
    shows as a gain here.
    """

    CUBE_DIMS = (4, 5, 6, 7, 8)
    SYMMETRIC_DEGREES = (4, 5)
    PRODUCT_DIM = 6
    PRODUCT_BASE = (Fraction(35, 100), Fraction(65, 100))

    def setup(self):
        cfg = mmlab.SearchConfig(seed=self.seed)
        pinned = mmlab.SearchConfig(seed=0)
        point = mmlab.point_space()
        spaces = {f"cube{n}": mmlab.hamming_cube(n) for n in self.CUBE_DIMS}
        spaces.update({f"S{n}": mmlab.symmetric_group(n) for n in self.SYMMETRIC_DEGREES})
        self.ops = {label: (lambda X=X: mmlab.obs_distance(X, point, cfg).upper)
                    for label, X in spaces.items()}
        product = mmlab.product_space([float(x) for x in self.PRODUCT_BASE], self.PRODUCT_DIM)
        self.ops[f"product{self.PRODUCT_DIM}"] = (
            lambda: mmlab.obs_distance(product, point, pinned).upper)
        self.laws = {f"cube{n}": [oracles.cube_distance_law(n)] for n in self.CUBE_DIMS}
        self.laws.update({f"S{n}": [oracles.symmetric_group_distance_law(n)]
                          for n in self.SYMMETRIC_DEGREES})
        self.laws[f"product{self.PRODUCT_DIM}"] = oracles.product_distance_laws(
            list(self.PRODUCT_BASE), self.PRODUCT_DIM)

    def check(self, values):
        problems = []
        for label, got in values.items():
            want = oracles.obs_distance_to_point(self.laws[label])
            # the program's bisection lands within 1e-16 of the exact value
            if not _close(got, want, 1e-12):
                problems.append(f"{label}: obs_distance {got!r}, expected {want}")
        return problems


# -- lazy-search ------------------------------------------------------------

class LazySearch(InProcess):
    """alpha_lower_bound on sampled spaces too large to materialize (more than
    2048 points), one per kernel path, plus one tail_check on a sphere past
    the dense-matrix cap.  That tail_check fails every time: its Lipschitz
    check builds the dense matrix, which raises before the documented
    "trivial" branch is reached.  Its input does not depend on the seed."""

    GEODESIC_POINTS = 12000
    EUCLIDEAN_POINTS = 2200
    HAMMING_POINTS = 2200
    HAMMING_DIM = 64
    SPHERE_EPS = (0.3, 0.6)      # geodesic radius, and chord length
    HAMMING_EPS = (0.15, 0.3)    # the first is below any pair's distance
    TAIL_POINTS = 9000
    TAIL_EPS = 0.5

    def setup(self):
        def sampler(n):
            return mmlab.SamplerConfig(seed=self.seed, sample_count=n)

        cfg = mmlab.SearchConfig(seed=self.seed)
        self.spaces = {
            "geodesic": mmlab.sphere_sampled(2, sampler(self.GEODESIC_POINTS), "geodesic"),
            "euclidean": mmlab.sphere_sampled(2, sampler(self.EUCLIDEAN_POINTS), "euclidean"),
            "hamming": mmlab.hamming_cube_sampled(self.HAMMING_DIM, sampler(self.HAMMING_POINTS)),
        }
        self.grids = {"geodesic": self.SPHERE_EPS, "euclidean": self.SPHERE_EPS,
                      "hamming": self.HAMMING_EPS}
        for kind, space in self.spaces.items():
            for eps in self.grids[kind]:
                self.ops[f"{kind} eps={eps}"] = (
                    lambda S=space, e=eps: mmlab.alpha_lower_bound(S, e, cfg))
        tail_space = mmlab.sphere_sampled(
            2, mmlab.SamplerConfig(seed=0, sample_count=self.TAIL_POINTS), "euclidean")
        # a coordinate is 1-Lipschitz for the chordal metric
        self.tail_values = tail_space.points[:, 0].copy()
        f = mmlab.LipschitzFunction(self.tail_values)
        self.ops["tail_check"] = lambda: mmlab.tail_check(tail_space, f, self.TAIL_EPS)
        self._min_hamming = None

    def _hamming_min_distance(self):
        if self._min_hamming is None:
            pts = np.packbits(self.spaces["hamming"].points.astype(bool), axis=1)
            best = self.HAMMING_DIM
            for r0 in range(0, pts.shape[0], 256):
                block = np.bitwise_count(pts[r0:r0 + 256, None, :] ^ pts[None, :, :]).sum(axis=2)
                rows = np.arange(r0, min(r0 + 256, pts.shape[0]))
                block[rows - r0, rows] = self.HAMMING_DIM  # skip self-pairs
                best = min(best, int(block.min()))
            self._min_hamming = best / self.HAMMING_DIM
        return self._min_hamming

    def check(self, values):
        problems = []
        for kind, space in self.spaces.items():
            got = [values.get(f"{kind} eps={eps}") for eps in self.grids[kind]]
            if None in got:
                continue
            if not _non_increasing(got) or not all(0.0 <= v <= 0.5 for v in got):
                problems.append(f"{kind}: lower bounds {got} not a non-increasing curve in [0, 1/2]")
            if kind == "hamming":
                # below the smallest distance a thickening adds nothing, so the
                # value is one minus the smallest half-mass share
                if self.HAMMING_EPS[0] < self._hamming_min_distance():
                    n = space.n
                    want = 1.0 - math.ceil(n / 2) / n
                    if not _close(got[0], want, 1e-12):
                        problems.append(f"hamming: {got[0]!r} below the smallest distance, "
                                        f"expected {want!r}")
                continue
            tol = oracles.sampling_tolerance(space.n)
            for eps, v in zip(self.grids[kind], got):
                arc = eps if kind == "geodesic" else oracles.chord_to_arc(eps)
                cap = oracles.sphere_cap_alpha(2, arc)
                if not _close(v, cap, tol):
                    problems.append(f"{kind} eps={eps}: lower bound {v!r} is not within "
                                    f"{tol:.4f} of the cap {cap!r}")
        res = values.get("tail_check")
        if res is not None:
            w = [Fraction(1, len(self.tail_values))] * len(self.tail_values)
            _, tail = oracles.median_and_tail(self.tail_values.tolist(), w, self.TAIL_EPS)
            if not (_close(res.tail_mass, tail, 1e-9) and res.holds
                    and res.tail_mass <= res.bound + 1e-12):
                problems.append(f"tail_check {res} disagrees with tail mass {float(tail)!r}")
        return problems


# -- exact ------------------------------------------------------------------------

class Exact(InProcess):
    """Exact solvers on small inputs: cube curves, sphere caps, the subset
    dynamic program with its two bounds, and the transport LP."""

    CUBE_DIMS = (12, 16, 18, 20)
    CUBE_HOPS = (1, 2, 3)     # floor(n * eps) on each cube curve
    CAP_DIMS = (1, 2, 3, 5, 10, 50, 200)
    DENSE_SIZES = (16, 18, 20)
    DENSE_EPS = (0.3, 0.5)
    EMD_CUBES = (6, 6, 7, 7, 7, 7, 7, 7)  # several LPs, so that pivot counts average out

    def setup(self):
        rng = _rng(self.seed, 3)
        # eps = (t + u) / n: the seed moves eps inside the hop interval, which
        # fixes the curve's cost and stays clear of the closed-ball ties
        self.cube_grids = {n: [round((t + float(rng.uniform(0.1, 0.9))) / n, 6) for t in self.CUBE_HOPS]
                           for n in self.CUBE_DIMS + (4,)}
        for n in self.CUBE_DIMS:
            self.ops[f"cube curve n={n}"] = (
                lambda n=n: mmlab.hamming_cube_curve(n, self.cube_grids[n]).alpha.tolist())
        cube4 = mmlab.hamming_cube(4)
        for eps in self.cube_grids[4]:
            self.ops[f"alpha_exact cube4 eps={eps}"] = (
                lambda e=eps: mmlab.alpha_exact(cube4, e))

        self.cap_grid = sorted(round(float(x), 6) for x in rng.uniform(0.05, 1.5, 8))
        for d in self.CAP_DIMS:
            self.ops[f"cap curve dim={d}"] = (
                lambda d=d: mmlab.sphere_cap_curve(d, self.cap_grid).alpha.tolist())

        cfg = mmlab.SearchConfig(seed=self.seed)
        for n in self.DENSE_SIZES:
            pts = rng.uniform(size=(n, 2))
            w = rng.uniform(0.5, 1.5, n)
            dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
            X = mmlab.FiniteMMSpace(list(range(n)), w / w.sum(), dist=dist)
            for eps in self.DENSE_EPS:
                key = f"n={n} eps={eps}"
                self.ops[f"alpha_exact {key}"] = lambda X=X, e=eps: mmlab.alpha_exact(X, e)
                self.ops[f"lower {key}"] = lambda X=X, e=eps: mmlab.alpha_lower_bound(X, e, cfg)
                self.ops[f"majority {key}"] = (
                    lambda X=X, e=eps: mmlab.concentration.majority_ball_upper(X, e))

        self.emd_marginals = {}
        for i, n in enumerate(self.EMD_CUBES):
            p = [Fraction(int(k), 100) for k in rng.integers(5, 96, n)]
            q = [Fraction(int(k), 100) for k in rng.integers(5, 96, n)]
            cube = mmlab.hamming_cube(n)
            bits = cube.points.astype(bool)

            def product(probs, bits=bits):
                pr = np.array([float(x) for x in probs])
                return np.where(bits, pr, 1.0 - pr).prod(axis=1)

            pair = mmlab.MeasurePair(product(p), product(q))
            label = f"emd {i} cube{n}"
            self.emd_marginals[label] = (p, q)
            self.ops[label] = lambda C=cube, P=pair: mmlab.emd(C, P).distance

    def check(self, values):
        problems = []
        for n in self.CUBE_DIMS:
            got = values.get(f"cube curve n={n}")
            want = [float(oracles.harper_cube_alpha(n, e)) for e in self.cube_grids[n]]
            if got is not None and not all(_close(a, b, 1e-12) for a, b in zip(got, want)):
                problems.append(f"cube curve n={n}: {got} != Harper {want}")
        for eps in self.cube_grids[4]:
            got = values.get(f"alpha_exact cube4 eps={eps}")
            want = oracles.harper_cube_alpha(4, eps)
            if got is not None and not _close(got, want, 1e-12):
                problems.append(f"alpha_exact on the 4-cube at {eps}: {got!r} != {want}")
        for d in self.CAP_DIMS:
            got = values.get(f"cap curve dim={d}")
            want = [oracles.sphere_cap_alpha(d, e) for e in self.cap_grid]
            if got is not None and not all(_close(a, b, 1e-10) for a, b in zip(got, want)):
                problems.append(f"cap curve dim={d}: {got} != {want}")
        for n in self.DENSE_SIZES:
            for eps in self.DENSE_EPS:
                key = f"n={n} eps={eps}"
                trio = [values.get(f"{kind} {key}") for kind in ("lower", "alpha_exact", "majority")]
                if None in trio:
                    continue
                lo, ex, up = trio
                if not (0.0 <= lo <= ex + 1e-12 and ex <= up + 1e-12 and up <= 0.5):
                    problems.append(f"{key}: alpha_exact {ex!r} not within "
                                    f"[lower {lo!r}, majority {up!r}]")
        for label, (p, q) in self.emd_marginals.items():
            got = values.get(label)
            want = oracles.product_measure_emd(p, q)
            if got is not None and not _close(got, want, 1e-9):
                problems.append(f"{label}: {got!r} != mean |p - q| = {float(want)!r}")
        return problems


# -- cli-batch ------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    stdout: str = ""   # file in the work directory that takes the standard output
    out: str = ""      # the --out file, whose manifest is replayed


class CliBatch:
    """Cold `mmlab` processes, one at a time, through launch.py.  The round's
    time is the sum of the processes' times, start to exit, so the
    benchmark's own reading and checking between them does not count."""

    in_process = False

    SPHERE_POINTS = 6000
    SPHERE_GRID = (0.3, 0.6, 2)
    TAIL_EPS = 0.3
    LEADER_EPS = 0.1
    LEADER_SAMPLES = 20000
    LEADER_DIM_HALF = 150

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.absent = set()   # traced names missing from mmlab, as children report them

    def setup(self):
        rng = _rng(self.seed, 4)
        self.p = [Fraction(int(k), 100) for k in rng.integers(5, 96, 4)]
        self.q = [Fraction(int(k), 100) for k in rng.integers(5, 96, 4)]
        # cube4.json lists vertex i with label format(i, "04b")
        bits = [[(i >> (3 - j)) & 1 for j in range(4)] for i in range(16)]
        anchors = rng.choice(16, size=int(rng.integers(1, 5)), replace=False)
        self.f = [Fraction(min(bin(i ^ int(a)).count("1") for a in anchors), 4) for i in range(16)]
        for name, vec in (("p.json", [float(oracles.product_measure(b, self.p)) for b in bits]),
                          ("q.json", [float(oracles.product_measure(b, self.q)) for b in bits]),
                          ("f.json", [float(x) for x in self.f])):
            with open(os.path.join(self.workdir, name), "w") as fh:
                json.dump(vec, fh)
        seed = str(self.seed)
        start, stop, count = self.SPHERE_GRID
        ramsey = ("ramsey", "--k", "2", "--l", "3", "--r", "2", "--n")
        obsdist = ("obsdist", "--x", "s4.json", "--y", "cube4.json", "--seed", seed, "--budget")
        self.commands = [
            Command("generate cube4", ("generate", "--family", "hamming_cube", "--n", "4"),
                    stdout="cube4.json"),
            Command("generate s4", ("generate", "--family", "symmetric_group", "--n", "4"),
                    stdout="s4.json"),
            Command("generate sphere", ("generate", "--family", "sphere", "--dim", "2",
                                        "--samples", str(self.SPHERE_POINTS), "--metric",
                                        "geodesic", "--seed", seed, "--out", "sphere.json"),
                    out="sphere.json"),
            Command("validate s4", ("validate", "--space", "s4.json"), stdout="validate.json"),
            Command("alpha sphere", ("alpha", "--space", "sphere.json", "--mode", "lower",
                                     "--grid", f"{start}:{stop}:{count}", "--seed", seed,
                                     "--out", "sphere_curve.csv"),
                    out="sphere_curve.csv"),
            Command("emd cube4", ("emd", "--space", "cube4.json", "--mu1", "p.json",
                                  "--mu2", "q.json", "--out", "emd.json"), out="emd.json"),
            Command("obsdist budget 8", obsdist + ("8", "--out", "obs8.json"), out="obs8.json"),
            Command("obsdist budget 2", obsdist + ("2",), stdout="obs2.json"),
            Command("tail cube4", ("tail", "--space", "cube4.json", "--values", "f.json",
                                   "--eps", str(self.TAIL_EPS), "--out", "tail.json"),
                    out="tail.json"),
            Command("leader", ("leader", "--eps", str(self.LEADER_EPS), "--dim-half",
                               str(self.LEADER_DIM_HALF), "--samples", str(self.LEADER_SAMPLES),
                               "--seed", seed, "--out", "leader.json"), out="leader.json"),
            Command("ramsey n=5", ramsey + ("5", "--out", "ramsey5.json"), out="ramsey5.json"),
            Command("ramsey n=6", ramsey + ("6",), stdout="ramsey6.json"),
        ]
        # (replay, the command whose manifest it replays)
        self.replays = [(Command(f"replay {c.out}",
                                 ("replay", "--manifest", c.out + ".manifest.json"),
                                 stdout="replay.out"), c)
                        for c in self.commands if c.out]
        self.ops = [c.label for c in self.commands] + [r.label for r, _ in self.replays]

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _read(self, name):
        with open(self._path(name), "rb") as fh:
            return fh.read()

    def _run(self, cmd, traced, index):
        """Run one command; return (seconds, error text or None)."""
        argv = [sys.executable, LAUNCH]
        if traced:
            argv += ["--trace-out", f"trace-{index}.json"]
        argv += list(cmd.argv)
        with open(self._path(cmd.stdout or "command.out"), "wb") as out, \
                open(self._path("command.err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, stdout=out, stderr=err)
            try:
                rc = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = "timeout"
            seconds = time.perf_counter() - t0
        if rc == 0:
            return seconds, None
        return seconds, f"exit {rc}: {self._read('command.err')[-400:].decode(errors='replace')}"

    def round(self, clock, traced):
        values, errors = {}, {}
        for i, cmd in enumerate(self.commands):
            seconds, error = self._run(cmd, traced, i)
            clock.add(seconds)
            if error:
                errors[cmd.label] = error
                continue
            name = cmd.out or cmd.stdout
            values[cmd.label] = self._read(name)
            if cmd.out:
                values[cmd.label + " manifest"] = self._read(cmd.out + ".manifest.json")
        for i, (cmd, original) in enumerate(self.replays):
            seconds, error = self._run(cmd, traced, len(self.commands) + i)
            clock.add(seconds)
            if error:
                errors[cmd.label] = error
                continue
            values[cmd.label] = (self._read(original.out),
                                 self._read(original.out + ".manifest.json"))
        layers = {}
        if traced:
            for i in range(len(self.ops)):
                path = self._path(f"trace-{i}.json")
                if os.path.exists(path):
                    with open(path) as fh:
                        child = json.load(fh)
                    tracer.merge(layers, child["layers"])
                    self.absent.update(child["absent"])
                    os.remove(path)
        return Round(*clock.take(), values, errors, layers)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, values):
        problems = []

        def payload(label):
            raw = values.get(label)
            return None if raw is None else json.loads(raw)

        sphere = payload("generate sphere")
        if sphere is not None:
            pts = np.asarray(sphere["metric"]["points"], dtype=float)
            n = self.SPHERE_POINTS
            if not (sphere["metric"]["type"] == "sphere_geodesic" and pts.shape == (n, 3)
                    and len(sphere["weights"]) == n
                    and np.allclose(sphere["weights"], 1.0 / n, rtol=0, atol=1e-15)
                    and np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0, atol=1e-12)):
                problems.append("generate sphere: not n unit vectors with uniform weights")

        if "alpha sphere" in values:
            rows = list(csv.reader(io.StringIO(values["alpha sphere"].decode())))
            start, stop, count = self.SPHERE_GRID
            grid = np.linspace(start, stop, count)
            got = [float(r[1]) for r in rows[1:]]
            tol = oracles.sampling_tolerance(self.SPHERE_POINTS)
            ok = (rows[0] == ["eps", "alpha", "kind"] and len(rows) == count + 1
                  and all(r[2] == "lower_bound_search" for r in rows[1:])
                  and np.allclose([float(r[0]) for r in rows[1:]], grid, rtol=0, atol=1e-15)
                  and _non_increasing(got)
                  and all(_close(v, oracles.sphere_cap_alpha(2, e), tol)
                          for v, e in zip(got, grid)))
            if not ok:
                problems.append(f"alpha sphere: {rows} not within {tol:.4f} of the caps")

        if payload("validate s4") not in (None, {"violations": []}):
            problems.append(f"validate s4: {payload('validate s4')}")

        emd = payload("emd cube4")
        want = oracles.product_measure_emd(self.p, self.q)
        if emd is not None and not _close(emd["distance"], want, 1e-9):
            problems.append(f"emd: {emd['distance']!r} != mean |p - q| = {float(want)!r}")

        obs8, obs2 = payload("obsdist budget 8"), payload("obsdist budget 2")
        if obs8 is not None:
            pi = np.asarray(obs8["coupling"], dtype=float)
            if not (0.0 < obs8["upper"] <= 1.0 and pi.shape == (24, 16)
                    and np.allclose(pi.sum(axis=1), 1 / 24, rtol=0, atol=1e-9)
                    and np.allclose(pi.sum(axis=0), 1 / 16, rtol=0, atol=1e-9)):
                problems.append(f"obsdist: upper {obs8['upper']!r} or its coupling is malformed")
            if obs2 is not None and obs8["upper"] > obs2["upper"]:
                problems.append(f"obsdist: budget 8 gave {obs8['upper']!r}, more than "
                                f"budget 2's {obs2['upper']!r}")

        tail = payload("tail cube4")
        if tail is not None:
            _, mass = oracles.median_and_tail(self.f, [Fraction(1, 16)] * 16,
                                              Fraction(self.TAIL_EPS))
            bound = 2 * oracles.harper_cube_alpha(4, self.TAIL_EPS)
            if not (_close(tail["tail_mass"], mass, 1e-12) and _close(tail["bound"], bound, 1e-12)
                    and tail["holds"] == (mass <= bound) and tail["bound_kind"] == "exact"):
                problems.append(f"tail: {tail} != tail mass {mass}, bound {bound}")

        leader = payload("leader")
        if leader is not None and not (
                leader["violations"] == 0 and leader["sample_count"] == self.LEADER_SAMPLES
                and leader["inessential_certified"] is True
                and _close(leader["threshold"], oracles.LEADER_THRESHOLD, 1e-15)):
            problems.append(f"leader: {leader}")

        r5, r6 = payload("ramsey n=5"), payload("ramsey n=6")
        if r5 is not None:
            cx = r5["counterexample"]
            if r5["all_colorings_contain"] or cx is None or (cx["n"], cx["k"], cx["r"]) != (5, 2, 2) \
                    or oracles.has_monochromatic_triangle(5, cx["colors"]):
                problems.append(f"ramsey n=5: {r5} is no triangle-free 2-coloring of K_5")
        if r6 is not None and r6 != {"all_colorings_contain": True, "counterexample": None}:
            problems.append(f"ramsey n=6: {r6}, but R(3,3) = 6")

        for cmd, source in self.replays:
            got = values.get(cmd.label)
            if got is not None and source.label in values and \
                    got != (values[source.label], values[source.label + " manifest"]):
                problems.append(f"{cmd.label}: output or manifest differs from the original")
        return problems


WORKLOADS = {"obsdist": ObsDist, "lazy-search": LazySearch, "exact": Exact,
             "cli-batch": CliBatch}
