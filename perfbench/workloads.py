"""The benchmark's workloads: inputs, one pass through the public entry points,
and the checks that decide whether the pass was correct.

A case is one (scheme, resolution) solve; it fails on a raised fvweno error,
non-finite output, or a checked value outside its tolerance.  Every checked
value also feeds ``tol_used_max``, the largest |got - ref| / tol of the pass.

A pass is cut into timed units, each one public call (a ``convergence_study``
at one resolution, a ``run_problem``, an ``analyze_step``, one family's RK3
steps); ``Units`` splits each into its RK3 steps and the rest, and the checks
run outside the timed units.

Step and cell-step counts come from the workload definitions below, not from
the program, so a pass that is served from a cache or that takes extra steps
shows up against them.  Only ``large-1d`` uses the seed; the other workloads
are the paper's computations and are fixed.

This module imports fvweno only inside ``setup`` and ``run``, so the parent
process can read the definitions without importing the package.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import math
import time

import numpy as np

TOL_USED_CAP = 1e9   # reported in place of a non-finite |got - ref| / tol

# (family, parameters) of the criterion-1 schemes; labels match the fixtures.
CRITERION1 = (("js", {}), ("m", {}), ("z", {}), ("zr", {"p": 2}), ("zl", {"p": 2, "q": 2}))


def _schemes(spec):
    from fvweno import WeightScheme

    return [getattr(WeightScheme, fam)(**params) for fam, params in spec]


class Checks:
    """Cases attempted and failed, and the largest share of a tolerance used."""

    def __init__(self):
        self.cases = {}
        self.failures = []
        self.tol_used_max = 0.0

    def case(self, key):
        self.cases.setdefault(key, True)

    def fail(self, key, message):
        self.cases[key] = False
        self.failures.append(f"{key}: {message}")

    def require(self, key, ok, message):
        if not ok:
            self.fail(key, message)

    def value(self, key, got, ref, tol, what):
        used = abs(got - ref) / tol if math.isfinite(got) else TOL_USED_CAP
        used = min(used, TOL_USED_CAP)
        self.tol_used_max = max(self.tol_used_max, used)
        if not used <= 1.0:
            self.fail(key, f"{what}: got {got:.8g}, ref {ref:.8g}, tol {tol:.3g}")

    @property
    def attempted(self):
        return len(self.cases)

    @property
    def failed(self):
        return sum(1 for ok in self.cases.values() if not ok)


# Where callers look ``rk3_step`` up, as (module, attribute): every solve of
# the package steps through one of them.
STEP_HOOKS = (("fvweno.integrate", "rk3_step"), ("fvweno.dissect", "rk3_step"))


def _step_kind(args, kwargs):
    """What an RK3 step's work depends on: its operator's scheme and the
    shape of the field it steps."""
    u = args[0] if args else kwargs.get("u")
    op = args[1] if len(args) > 1 else kwargs.get("L")
    return getattr(op, "scheme", None), np.shape(getattr(u, "data", None))


class StepClock:
    """Wall time and kind of every RK3 step, taken around ``rk3_step`` where
    its callers look it up.  A hook whose target has gone is skipped; the
    units are then timed whole."""

    def __init__(self):
        self.times = []
        self.kinds = []
        self.missing = []

    def install(self):
        for modname, attr in STEP_HOOKS:
            try:
                owner = importlib.import_module(modname)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(owner, attr, self._wrap(fn))

    def _wrap(self, fn, clock=time.perf_counter):
        times, kinds = self.times, self.kinds

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(clock() - t0)
                kinds.append(_step_kind(args, kwargs))

        timed.__wrapped__ = fn
        return timed


class Units:
    """The timed units of one pass, in order.

    ``with units("sod/JS"): ...`` times the block and splits its time into
    segments: one per RK3 step taken inside it, and the rest.  Consecutive
    steps of the same kind (scheme and field shape) form a run: they do the
    same work.  The time is kept even when the block raises, so a failed
    case still shows.
    """

    def __init__(self, clock):
        self.clock = clock
        self.layout = []        # (key, [steps of each run]) per unit
        self.segments = []      # seconds: each unit's steps, then its rest

    @contextlib.contextmanager
    def __call__(self, key):
        mark = len(self.clock.times)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            steps = self.clock.times[mark:]
            runs = [len(list(g)) for _, g in itertools.groupby(self.clock.kinds[mark:])]
            self.layout.append((key, runs))
            self.segments += steps
            self.segments.append(wall - sum(steps))


# The package's memo caches, as (module, attribute).  Each pass starts with
# them cleared, and a timed call that hits one fails its case, so no repeat
# of a pass is served from memory.  A cache that a later change removes is
# simply skipped.
MEMO_CACHES = (("fvweno.harness.runs", "_study_point"),
               ("fvweno.harness.golden", "_stage_reports"),
               ("fvweno.harness.golden", "_final_table"))


def _memo_caches():
    out = []
    for modname, attr in MEMO_CACHES:
        try:
            cache = getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            continue
        if hasattr(cache, "cache_clear") and hasattr(cache, "cache_info"):
            out.append(cache)
    return out


def clear_memo_caches():
    for cache in _memo_caches():
        cache.cache_clear()


def memo_hits():
    return sum(cache.cache_info().hits for cache in _memo_caches())


def _convergence_case(label, n):
    return f"{label}/N={n}"


def _run_convergence(chk, units, problem, scheme, sizes, n_list, fixtures):
    """One timed convergence_study call per resolution, each a memo-cache
    miss; then the whole study, served from the cache, for the errors
    (relative tolerance) and orders (absolute) of each (norm, fixture)."""
    import fvweno.harness as H
    from fvweno.errors import FvwenoError

    label = scheme.label
    keys = [_convergence_case(label, n) for n in n_list]
    for key in keys:
        chk.case(key)
    for size, key in zip(sizes, keys):
        hits = memo_hits()
        try:
            with units(key):
                H.convergence_study(problem, scheme, [size])
        except FvwenoError as exc:
            for k in keys:
                chk.fail(k, f"{key} raised {exc}")
            return
        if memo_hits() != hits:
            chk.fail(key, "served from a memo cache")
    report = H.convergence_study(problem, scheme, sizes)
    for norm, fixture in fixtures.items():
        _check_convergence(chk, label, report, fixture, norm, n_list)


def _check_convergence(chk, label, report, fixture, norm, n_list):
    errors, orders = report.errors(norm), report.orders(norm)
    for col, ref, order_ref in zip(fixture.columns, fixture.rows[f"{label}/error"],
                                   fixture.rows[f"{label}/order"]):
        n = int(col)
        if n not in n_list:
            continue
        chk.value(_convergence_case(label, n), errors[n], ref, fixture.rel * abs(ref),
                  f"{fixture.table_id} error")
        if order_ref is not None and n != n_list[0]:
            chk.value(_convergence_case(label, n), orders[n], order_ref, fixture.order_abs,
                      f"{fixture.table_id} order")


def _check_table(chk, fixture, table, case_keys):
    """One dissect table against its fixture, by the golden tolerance rule:
    max(1e-6 |ref|, 1e-15, half a unit in the fixture's last printed digit).

    A row naming a scheme counts against that scheme's case; other rows (the
    exact solution) count against every case of the table.
    """
    got = {}
    for label, row in zip(table.row_labels, table.values):
        for col, v in zip(table.columns, row):
            got[(label, round(float(col), 9))] = float(v)
    for label, refs in fixture.rows.items():
        keys = [key for scheme, key in case_keys.items()
                if label == scheme or label.endswith(f"[{scheme}]")] or list(case_keys.values())
        for k, (col, ref) in enumerate(zip(fixture.columns, refs)):
            if ref is None:
                continue
            tol = max(1e-6 * abs(ref), 1e-15, fixture.quanta[label][k])
            value = got.get((label, round(float(col), 9)), math.nan)
            for key in keys:
                chk.value(key, value, ref, tol, f"{fixture.table_id} {label} @ {col:g}")


class Workload:
    name = ""
    why = ""          # the one-line reason, also in BENCHMARK.json
    roadmap = ""      # which ROADMAP items it should move or leave unchanged
    seed_note = "fixed by the paper; the seed is ignored"

    def __init__(self, smoke=False):
        self.smoke = smoke

    def describe(self):
        return {"why": self.why, "roadmap": self.roadmap, "seed": self.seed_note,
                "steps": self.steps(), "cell_steps": self.cell_steps(),
                "array_bytes": self.array_bytes()}


class Sweep1D(Workload):
    name = "sweep-1d"
    why = ("Criterion-1 sweep (5 schemes, N=10..40, T=8) + dissections; <=176-cell arrays, "
           "numpy dispatch dominates; 692,296 cell-steps; exposes ROADMAP 3, 2 moves it little")
    roadmap = ("exposes ROADMAP 3 (ensemble operator: all members share grid and dt); "
               "ROADMAP 2 (fused kernel) should move it little; ROADMAP 4 not at all")
    PROBLEM = "advection1d-accuracy"
    T, DT_SCALE, LENGTH = 8.0, 0.1, 2.0
    # N = 80 and 160 of the criterion-1 table are left out: a step is timed
    # at the fastest of its solve over the run's passes, which needs several
    # passes in a run, and with N = 80 one pass took 10-15 s on the shared
    # host the benchmark was defined on.  N <= 40 is as dispatch-bound as
    # N = 160.
    # Dissection runs (fixed by the paper's setup, dx = 0.01, nu = 0.5): one
    # step on the 37-cell grid, and T = 1 (200 steps) on the 170-cell grid,
    # four schemes each for the classic and the ZL sets.
    STEP_CELLS, FINAL_CELLS, FINAL_STEPS, DISSECT_SCHEMES = 37, 170, 200, 8

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.n_list = (10, 20) if smoke else (10, 20, 40)
        self.schemes = CRITERION1[:2] if smoke else CRITERION1

    def _steps(self, n):
        return round(self.T / (self.DT_SCALE * self.LENGTH / n))

    def steps(self):
        sweep = len(self.schemes) * sum(self._steps(n) for n in self.n_list)
        return sweep + self.DISSECT_SCHEMES * (1 + self.FINAL_STEPS)

    def cell_steps(self):
        sweep = len(self.schemes) * sum(n * self._steps(n) for n in self.n_list)
        return sweep + self.DISSECT_SCHEMES * (
            self.STEP_CELLS + self.FINAL_CELLS * self.FINAL_STEPS)

    def array_bytes(self):
        n = max(max(self.n_list), self.FINAL_CELLS)
        return {"field": (n + 6) * 8, "window_temp": (n + 2) * 3 * 8}

    def setup(self, seed):
        from fvweno.dissect import RiemannSetup, classic_schemes, final_time_schemes, zl_schemes
        from fvweno.harness.golden import load_fixture

        fixtures = {norm: load_fixture(f"accuracy-{norm}") for norm in ("l1", "l2", "linf")}
        dissect = {}
        for variant, prefix, step_set, final_set, final_id in (
                ("classic", "", classic_schemes(), final_time_schemes(), "final-t1"),
                ("zl", "zl-", zl_schemes(), zl_schemes(), "zl-final")):
            tables = {(stage, kind): load_fixture(f"{prefix}{kind}-stage{stage}")
                      for stage in (1, 2, 3) for kind in ("weights", "fluxes", "solutions")}
            dissect[variant] = (RiemannSetup(schemes=step_set), tables,
                                RiemannSetup(schemes=final_set), load_fixture(final_id))
        return {"schemes": _schemes(self.schemes), "fixtures": fixtures, "dissect": dissect}

    def run(self, inp, chk, units, new_case):
        import fvweno.dissect as D
        from fvweno.errors import FvwenoError

        for scheme in inp["schemes"]:
            _run_convergence(chk, units, self.PROBLEM, scheme, self.n_list, self.n_list,
                             inp["fixtures"])

        for variant, (step_setup, tables, final_setup, final_fx) in inp["dissect"].items():
            keys = {s.label: f"dissect-{variant}/{s.label}" for s in step_setup.schemes}
            for key in keys.values():
                chk.case(key)
            new_case()
            try:
                with units(f"dissect-{variant}"):
                    reports = D.analyze_step(step_setup)
            except FvwenoError as exc:
                for key in keys.values():
                    chk.fail(key, f"raised {exc}")
            else:
                for rep in reports:
                    for label, flags in rep.mismatches.items():
                        chk.require(keys[label], not flags,
                                    f"stage {rep.stage} formula/solver mismatch at {flags}")
                for (stage, kind), fixture in tables.items():
                    _check_table(chk, fixture, D.render_table(reports[stage - 1], kind), keys)

            keys = {s.label: f"final-{variant}/{s.label}" for s in final_setup.schemes}
            for key in keys.values():
                chk.case(key)
            new_case()
            try:
                with units(f"final-{variant}"):
                    table = D.final_time_comparison(final_setup)
            except FvwenoError as exc:
                for key in keys.values():
                    chk.fail(key, f"raised {exc}")
            else:
                _check_table(chk, final_fx, table, keys)


class ShockTubes(Workload):
    name = "shock-tubes"
    why = ("Sod and Lax, N=200, CFL 0.4, 5 schemes each vs the exact Riemann fan; Euler wave "
           "speed every stage; 526,800 cell-steps; exposes ROADMAP 4, 3 predicted unchanged")
    roadmap = ("exposes ROADMAP 4 (one wave-speed evaluation per step); dt depends on "
               "the solution, so ROADMAP 3 (ensemble operator) should leave it unchanged")
    N, CFL = 200, 0.4
    # Criterion-8 scheme sets.  L1 density bounds sit above every scheme's
    # error at this resolution (Sod <= 3.2e-3, Lax <= 9.7e-3).
    TUBES = (
        ("sod", (("js", {}), ("m", {}), ("z", {}), ("zr", {"p": 2}), ("zl", {"p": 5, "q": 1})),
         5e-3),
        ("lax", (("js", {}), ("m", {}), ("z", {}), ("zr", {"p": 2}), ("zl", {"p": 2, "q": 1})),
         1.5e-2),
    )
    # CFL mode has no closed-form step count: these are the counts of the
    # solver that defined this benchmark, in TUBES order.  A change of
    # numerics that moves them shows up as a step-count failure.
    PINNED_STEPS = {"sod": (219, 220, 220, 220, 220), "lax": (305, 307, 307, 308, 308)}
    BAND = 0.02          # criterion 8a: Sod density within 2 % of the fan's range

    def _tubes(self):
        for pid, schemes, bound in self.TUBES:
            yield pid, schemes[:1] if self.smoke else schemes, bound

    def steps(self):
        return sum(sum(self.PINNED_STEPS[pid][:len(s)]) for pid, s, _ in self._tubes())

    def cell_steps(self):
        return self.N * self.steps()

    def array_bytes(self):
        return {"field": 3 * (self.N + 6) * 8, "window_temp": 3 * (self.N + 2) * 3 * 8}

    def setup(self, seed):
        from fvweno.harness import RunConfig
        from fvweno.harness.problems import SOD_LEFT, SOD_RIGHT
        from fvweno.physics import exact_riemann

        runs = [(pid, RunConfig(pid, scheme, n=self.N, cfl=self.CFL, with_reference=False),
                 bound)
                for pid, spec, bound in self._tubes() for scheme in _schemes(spec)]
        return {"runs": runs, "sod_range": exact_riemann(SOD_LEFT, SOD_RIGHT).density_range()}

    def run(self, inp, chk, units, new_case):
        import fvweno.harness as H
        from fvweno.errors import FvwenoError
        from fvweno.physics import EULER

        lo, hi = inp["sod_range"]
        for pid, cfg, bound in inp["runs"]:
            key = f"{pid}/{cfg.scheme.label}"
            chk.case(key)
            try:
                with units(key):
                    res = H.run_problem(cfg)
            except FvwenoError as exc:
                chk.fail(key, f"raised {exc}")
                continue
            U = res.final.interior
            if not np.all(np.isfinite(U)):
                chk.fail(key, "non-finite output")
                continue
            rho, _, P = EULER.primitive(U)
            chk.require(key, rho.min() > 0.0 and P.min() > 0.0,
                        "nonpositive density or pressure")
            if pid == "sod":
                chk.value(key, max(rho.max(), hi), hi, self.BAND * hi, "density above band")
                chk.value(key, min(rho.min(), lo), lo, self.BAND * lo, "density below band")
            l1 = float(np.abs(rho - res.exact.interior[0]).mean())
            chk.value(key, l1, 0.0, bound, "L1 density error vs exact fan")


class Large1D(Workload):
    name = "large-1d"
    why = ("Seeded smooth+jump periodic advection, N=5e3, 5 families x 10 RK3 steps; call "
           "overhead mostly amortised, L2-resident; 250,000 cell-steps; exposes ROADMAP 2, 3 unchanged")
    roadmap = ("exposes ROADMAP 2 (fused kernel, in-place buffers); ROADMAP 3 "
               "(ensemble operator) and ROADMAP 4 should leave it unchanged")
    seed_note = "the seed draws the jump positions, plateau levels and mode phases"
    # dt = 0.1 dx, so ten steps move the exact solution by exactly one cell.
    STEPS, DT_SCALE = 10, 0.1
    JUMPS = 24
    MODES = ((1, 0.5), (3, 0.25), (7, 0.125), (13, 0.0625))   # (wavenumber, amplitude)
    MASS_REL = 1e-12     # mass drift allowed, relative to sum |u|
    # The L1 bound is one cell's worth of every jump, sum |jump| / N; the
    # schemes use about half of it after one cell of travel.

    def __init__(self, smoke=False):
        super().__init__(smoke)
        # On the shared host the benchmark was defined on, the quiet speed of
        # steps over L2-sized arrays drifted from run to run: the run-to-run
        # spread of wall_s was 15 % at N = 2e4, 8 % at 1e4 and 7 % at 5e3.
        # At 5e3 a field is 40 kB and a step about 3 ms.
        self.n = 2_000 if smoke else 5_000

    def steps(self):
        return len(CRITERION1) * self.STEPS

    def cell_steps(self):
        return self.n * self.steps()

    def array_bytes(self):
        return {"field": (self.n + 6) * 8, "window_temp": (self.n + 2) * 3 * 8}

    def setup(self, seed):
        from fvweno import ADVECTION, PERIODIC, Grid1D, SemiDiscreteOp1D, cell_average_of

        rng = np.random.default_rng(seed)
        n = self.n
        grid = Grid1D(0.0, 1.0, n)
        # jumps sit on cell interfaces, so the shifted averages are exact
        cuts = np.sort(rng.choice(np.arange(1, n), self.JUMPS, replace=False)) / n
        levels = rng.uniform(-1.0, 1.0, self.JUMPS + 1)
        levels[-1] = levels[0]          # periodic: the last plateau wraps onto the first
        phases = rng.uniform(0.0, 2.0 * np.pi, len(self.MODES))

        def profile(x):
            smooth = sum(a * np.sin(2.0 * np.pi * k * x + ph)
                         for (k, a), ph in zip(self.MODES, phases))
            return smooth + levels[np.searchsorted(cuts, x, side="right")]

        u0 = cell_average_of(profile, grid)
        ops = [SemiDiscreteOp1D(ADVECTION, s, (PERIODIC, PERIODIC))
               for s in _schemes(CRITERION1)]
        return {"u0": u0, "ops": ops, "dt": self.DT_SCALE * grid.dx,
                "exact": np.roll(u0.interior[0], 1),
                "l1_bound": float(np.abs(np.diff(levels)).sum()) / n,
                "mass0": float(u0.interior[0].sum()),
                "mass_tol": self.MASS_REL * float(np.abs(u0.interior[0]).sum())}

    def run(self, inp, chk, units, new_case):
        import fvweno.integrate as I
        from fvweno.errors import FvwenoError

        for op in inp["ops"]:
            key = f"large-1d/{op.scheme.label}"
            chk.case(key)
            new_case()
            u = inp["u0"]
            try:
                with units(key):
                    for _ in range(self.STEPS):
                        u = I.rk3_step(u, op, inp["dt"])
            except FvwenoError as exc:
                chk.fail(key, f"raised {exc}")
                continue
            final = u.interior[0]
            if not np.all(np.isfinite(final)):
                chk.fail(key, "non-finite output")
                continue
            chk.value(key, float(final.sum()), inp["mass0"], inp["mass_tol"], "mass drift")
            chk.value(key, float(np.abs(final - inp["exact"]).mean()), 0.0,
                      inp["l1_bound"], "L1 error vs shifted profile")


class Accuracy2D(Workload):
    name = "accuracy-2d"
    why = ("Advected square, N=10,20, T=4, 5 schemes vs accuracy-2d-l1; the only 2D "
           "operator and Gauss-node pass; 225,000 cell-steps; exposes ROADMAP 2 and 3")
    roadmap = ("exposes ROADMAP 2 (fused kernel, four weight sets per window today) "
               "and ROADMAP 3 (members share grid and dt)")
    PROBLEM = "advection2d-accuracy"
    SCHEMES = (("js", {}), ("m", {}), ("z", {}), ("zr", {"p": 2}), ("zl", {"p": 5, "q": 1}))
    T, DT_SCALE, LENGTH = 4.0, 0.4, 2.0

    def __init__(self, smoke=False):
        super().__init__(smoke)
        # N = 40 is left out: it alone costs four times the rest of the
        # study, and a pass has to fit several times into a run.
        self.n_list = (10, 20)
        self.schemes = self.SCHEMES[:1] if smoke else self.SCHEMES

    def _steps(self, n):
        return round(self.T / (self.DT_SCALE * self.LENGTH / n))

    def steps(self):
        return len(self.schemes) * sum(self._steps(n) for n in self.n_list)

    def cell_steps(self):
        return len(self.schemes) * sum(n * n * self._steps(n) for n in self.n_list)

    def array_bytes(self):
        n = max(self.n_list)
        return {"field": (n + 6) ** 2 * 8, "window_temp": (n + 1) * (n + 2) * 3 * 8}

    def setup(self, seed):
        from fvweno.harness.golden import load_fixture

        return {"schemes": _schemes(self.schemes), "fixture": load_fixture("accuracy-2d-l1")}

    def run(self, inp, chk, units, new_case):
        sizes = [(n, n) for n in self.n_list]
        for scheme in inp["schemes"]:
            _run_convergence(chk, units, self.PROBLEM, scheme, sizes, self.n_list,
                             {"l1": inp["fixture"]})


WORKLOADS = {w.name: w for w in (Sweep1D, ShockTubes, Large1D, Accuracy2D)}
