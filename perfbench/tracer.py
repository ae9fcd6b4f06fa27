"""Spans around randbc's layer functions, recorded from outside the package.

Each target is wrapped in the module (or class) that looks the name up at
call time: callers import these functions by name, so wrapping
`randbc._backend.bessel_jk` would count nothing.  A span is
(id, key, start, end, parent); spans stay in memory until `save`.  A key's
self time is its spans' time minus the time covered by their child spans.
"""
import functools
import importlib
import itertools
import os
import threading
import time
import uuid
from array import array
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    key: str
    module: str
    path: str
    # (args, kwargs, result) -> {counter name: increment}
    extract: object = None
    counters: tuple = ()
    # wrap `path` in its class and in every subclass that defines it
    subclasses: bool = False


def _fd_nodes(args, kwargs, result):
    n = args[4] if len(args) > 4 else kwargs["n_grid"]
    return {"kernels.fd_radial_edge.node_steps": n}


def _root_search(args, kwargs, result):
    return {"specfun.find_real_roots.evals": result.n_evals,
            "specfun.find_real_roots.roots": len(result.roots),
            "specfun.find_real_roots.suspected_double":
                len(result.suspected_double)}


def _polish(args, kwargs, result):
    return {"specfun.complex_root_polish.iterations": result.iterations,
            "specfun.complex_root_polish.not_converged":
                int(not result.converged)}


def _mode_solve(args, kwargs, result):
    return {"disk_model.solve_mode_eigenvalues.eigenvalues":
                len(result.eigenvalues),
            "disk_model.solve_mode_eigenvalues.warnings": len(result.warnings)}


def _mc_trials(args, kwargs, result):
    dists = args[0] if args else kwargs["dists"]
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    return {"weyl.monte_carlo_transition.trials": trials * len(dists)}


def _bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"serialize.bytes_written": os.path.getsize(path)}


TARGETS = (
    Target("kernels.bessel_jk", "randbc.specfun", "bessel_jk"),
    Target("kernels.spherical_jl", "randbc.specfun", "spherical_jl"),
    Target("kernels.fd_radial_edge", "randbc.disk_model", "fd_radial_edge",
           _fd_nodes, ("kernels.fd_radial_edge.node_steps",)),
    Target("specfun.find_real_roots", "randbc.disk_model", "find_real_roots",
           _root_search, ("specfun.find_real_roots.evals",
                          "specfun.find_real_roots.roots",
                          "specfun.find_real_roots.suspected_double")),
    Target("specfun.complex_root_polish", "randbc.disk_model",
           "complex_root_polish", _polish,
           ("specfun.complex_root_polish.iterations",
            "specfun.complex_root_polish.not_converged")),
    Target("disk_model.solve_mode_eigenvalues", "randbc.disk_model",
           "solve_mode_eigenvalues", _mode_solve,
           ("disk_model.solve_mode_eigenvalues.eigenvalues",
            "disk_model.solve_mode_eigenvalues.warnings")),
    Target("disk_model.fd_oracle", "randbc.disk_model", "fd_oracle"),
    Target("impedance.SeededStream.generator", "randbc.impedance",
           "SeededStream.generator"),
    Target("impedance.sample", "randbc.impedance",
           "ImpedanceDistribution.sample", subclasses=True),
    Target("impedance.survival_abs", "randbc.impedance",
           "ImpedanceDistribution.survival_abs", subclasses=True),
    Target("weyl.monte_carlo_transition", "randbc.weyl",
           "monte_carlo_transition", _mc_trials,
           ("weyl.monte_carlo_transition.trials",)),
    Target("weyl.series_criterion", "randbc.weyl", "series_criterion"),
    Target("weyl.expectation_criterion", "randbc.weyl",
           "expectation_criterion"),
    Target("weyl.weyl_exponent_fit", "randbc.weyl", "weyl_exponent_fit"),
    Target("labsuite.run_invariant_suite", "randbc.labsuite",
           "run_invariant_suite"),
    Target("extension_lab.extension_from_contraction",
           "randbc.extension_lab", "extension_from_contraction"),
    Target("extension_lab.ExtensionOp.resolvent", "randbc.extension_lab",
           "ExtensionOp.resolvent"),
    Target("extension_lab.krein_residual", "randbc.extension_lab",
           "krein_residual"),
    Target("extension_lab.weyl_function", "randbc.extension_lab",
           "weyl_function"),
    Target("serialize.write_csv", "randbc.serialize", "write_csv", _bytes,
           ("serialize.bytes_written",)),
    Target("serialize.write_json", "randbc.serialize", "write_json", _bytes,
           ("serialize.bytes_written",)),
    Target("config.RunManifest.add_file", "randbc.config",
           "RunManifest.add_file"),
)


def metric_names(targets=TARGETS):
    """Every per-layer name `Tracer.metrics` reports when nothing is missing."""
    names = []
    for t in targets:
        names += [f"{t.key}.calls", f"{t.key}.self_s"]
        names += [c for c in t.counters if c not in names]
    return names + ["specfun.find_real_roots.evals_per_root",
                    "weyl.monte_carlo_transition.trials_per_s"]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _subclasses(sub) if c not in out]
    return out


def _owners(module, path, subclasses):
    """(owner, attribute) pairs to wrap, or [] when the name is gone."""
    *parents, name = path.split(".")
    owner = module
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if not parents:
        return [(owner, name)] if hasattr(owner, name) else []
    classes = _subclasses(owner) if subclasses else [owner]
    return [(c, name) for c in classes if name in vars(c)]


def self_times(spans):
    """Self time of each row of `spans` (columns id, key, start, end, parent
    id or -1): its duration minus the union of its children's intervals.
    Children overlap when they ran on worker threads."""
    import numpy as np

    spans = np.asarray(spans, dtype=float).reshape(-1, 5)
    covered = np.zeros(int(spans[:, 0].max()) + 1 if len(spans) else 0)
    kids = spans[spans[:, 4] >= 0]
    kids = kids[np.lexsort((kids[:, 2], kids[:, 4]))]
    parent, reach = None, 0.0
    for _, _, start, end, p in kids.tolist():
        if p != parent:
            parent, reach = p, start
        if end > reach:
            covered[int(p)] += end - max(start, reach)
            reach = end
    return spans[:, 3] - spans[:, 2] - covered[spans[:, 0].astype(int)]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.keys = [t.key for t in targets]
        self.missing = []
        self.run_id = uuid.uuid4().hex
        self.counters = defaultdict(int)
        self._spans = array("d")
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, kid, fn, extract):
        spans, ids, clock = self._spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to whatever the
                # submitting (main) thread has open
                main = self._main_stack
                parent = main[-1] if main and stack is not main else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # one C call: rows from two threads cannot interleave
                spans.extend((sid, kid, start, end, parent))
            if extract is not None:
                with self._lock:
                    for name, inc in extract(args, kwargs, result).items():
                        self.counters[name] += inc
            return result

        return wrapper

    def install(self):
        self._main_stack = self._stack()
        for kid, target in enumerate(self.targets):
            module = importlib.import_module(target.module)
            owners = _owners(module, target.path, target.subclasses)
            if not owners:
                self.missing.append(target.key)
                continue
            for name in target.counters:
                self.counters[name] += 0
            for owner, name in owners:
                original = vars(owner)[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(kid, original, target.extract))

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def metrics(self):
        import numpy as np

        spans = np.frombuffer(self._spans, dtype=float).reshape(-1, 5)
        kid = spans[:, 1].astype(int)
        n = len(self.keys)
        calls = np.bincount(kid, minlength=n)
        self_s = np.bincount(kid, weights=self_times(spans), minlength=n)
        total_s = np.bincount(kid, weights=spans[:, 3] - spans[:, 2],
                              minlength=n)
        total_s = dict(zip(self.keys, total_s.tolist()))
        out = {}
        for i, key in enumerate(self.keys):
            if key not in self.missing:
                out[f"{key}.calls"] = int(calls[i])
                out[f"{key}.self_s"] = float(self_s[i])
        out.update(self.counters)
        if "specfun.find_real_roots.roots" in out:
            roots = out["specfun.find_real_roots.roots"]
            out["specfun.find_real_roots.evals_per_root"] = (
                out["specfun.find_real_roots.evals"] / roots if roots else 0.0)
        if "weyl.monte_carlo_transition.trials" in out:
            busy = total_s["weyl.monte_carlo_transition"]
            out["weyl.monte_carlo_transition.trials_per_s"] = (
                out["weyl.monte_carlo_transition.trials"] / busy
                if busy else 0.0)
        return out

    def save(self, path):
        """Write the spans as a .npz: run_id, keys, and rows of
        (id, key index, start, end, parent id or -1)."""
        import numpy as np

        np.savez(path, run_id=self.run_id, keys=np.array(self.keys),
                 spans=np.frombuffer(self._spans, dtype=float).reshape(-1, 5))
