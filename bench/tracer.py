"""Span tracing of one schurgate CLI job, installed from outside the package.

As a script it runs one traced job in place of ``python -m schurgate.cli``:

    python bench/tracer.py SPANS_FILE JOB_ID -- <schurgate arguments>

It imports ``schurgate.cli``, wraps every callable named in each module's
``__all__`` (in the defining module and in every module that imported the
name), the arithmetic, ``galois``, ``inverse`` and ``zeta`` entry points of
``CyclotomicNumber`` and ``cli._emit``, runs ``cli.main`` and writes the
spans it kept in memory to SPANS_FILE.  The package source is not touched.

A span is (name, start, end, parent, span id, arg), in nanoseconds; ``arg``
is the result conductor for kernel operations, ``v`` for ``a_v``, ``X`` for
series, else 0.  ``layer_metrics`` turns the span files of one pass into the
per-layer metrics.
"""

from __future__ import annotations

import array
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

MODULES = ("cyclotomic", "groups", "characters", "schur", "elliptic", "frobenius",
           "lseries", "predictions", "cli")
KERNEL_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
                  "galois", "zeta")
# calls whose distinct arguments per job are counted, keyed by span name
DISTINCT_KEYS = {
    "cyclotomic.CyclotomicNumber.zeta": lambda a, k: (a[1], (a[2] if len(a) > 2 else k.get("k", 1)) % a[1]),
    "characters.permutation_character": lambda a, k: (a[0], a[1].label),
    "groups.conjugacy_classes": lambda a, k: a[0],
}
FIELDS = 6  # name, start, end, parent, span id, arg


class Recorder:
    """Spans of one process, kept in one flat array until the job ends."""

    def __init__(self):
        self.names: list[str] = []
        self.rows = array.array("q")
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_KEYS}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, arg=None):
        """fn with a span around each call (each resumption for generators)."""
        nid = len(self.names)
        self.names.append(name)
        rows, ids, clock, stack_of = self.rows, self._ids, time.perf_counter_ns, self._stack
        key_of = DISTINCT_KEYS.get(name)
        seen = self.distinct.get(name)

        def call(f, a, k):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            value = 0
            t0 = clock()
            try:
                result = f(*a, **k)
                if arg is not None:
                    value = arg(a, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                rows.extend((nid, t0, t1, parent, sid, value))  # one C call: atomic

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*a, **k):
                it = fn(*a, **k)
                while True:
                    try:
                        item = call(next, (it,), {})
                    except StopIteration:
                        return
                    yield item
            return traced_generator

        def traced(*a, **k):
            if key_of is not None:
                seen.add(key_of(a, k))
            return call(fn, a, k)
        return traced

    def dump(self, path: str, job: int, import_ns: int) -> None:
        header = {"job": job, "names": self.names, "import_ns": import_ns,
                  "distinct": {k: len(v) for k, v in self.distinct.items()}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.rows.tofile(fh)


def _conductor(a, result) -> int:
    return getattr(result, "conductor", 0)


ARGS = {
    "elliptic.a_v": lambda a, r: a[1],
    "lseries.dirichlet_partial": lambda a, r: a[4],
    "lseries.identity_series_check": lambda a, r: a[3],
}


def install(rec: Recorder) -> object:
    """Wrap the package's entry points in place; returns the wrapped cli.main."""
    mods = {name: importlib.import_module(f"schurgate.{name}") for name in MODULES}
    everywhere = [*mods.values(), importlib.import_module("schurgate")]
    for modname, mod in mods.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if isinstance(obj, type) or not callable(obj):
                continue
            name = f"{modname}.{attr}"
            traced = rec.wrap(name, obj, ARGS.get(name))
            for other in everywhere:
                if getattr(other, attr, None) is obj:
                    setattr(other, attr, traced)
    cli = mods["cli"]
    cli._emit = rec.wrap("cli._emit", cli._emit)
    cls = mods["cyclotomic"].CyclotomicNumber
    for attr in KERNEL_METHODS:
        raw = cls.__dict__[attr]
        name = f"cyclotomic.CyclotomicNumber.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(name, raw.__func__, _conductor)))
        else:
            setattr(cls, attr, rec.wrap(name, raw, _conductor))
    return cli.main


def run_job(argv: list[str]) -> int:
    spans_file, job = argv[0], int(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    t0 = time.perf_counter_ns()
    import schurgate.cli  # noqa: F401  (timed: the CLI's import cost)
    import_ns = time.perf_counter_ns() - t0
    rec = Recorder()
    main = install(rec)
    try:
        rc = main(cli_args)
    finally:
        sys.stdout.flush()
        rec.dump(spans_file, job, import_ns)
    return rc


# -- per-layer metrics ---------------------------------------------------------

def _load(path: str):
    import numpy as np

    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        rows = np.frombuffer(fh.read(), dtype=np.int64).reshape(-1, FIELDS)
    return header, rows


def layer_metrics(span_files: list[str], json_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its span files."""
    import numpy as np

    inclusive: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    arg_sum: dict[str, int] = {}
    distinct: dict[str, int] = {}
    conductor_max = 0
    import_ns = 0
    for path in span_files:
        header, rows = _load(path)
        names = header["names"]
        import_ns += header["import_ns"]
        for key, count in header["distinct"].items():
            distinct[key] = distinct.get(key, 0) + count
        if not len(rows):
            continue
        nid, start, end, parent, sid, arg = rows.T
        dur = (end - start).astype(np.float64)
        pos = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
        pos[sid] = np.arange(len(sid))
        has_parent = parent >= 0
        parent_row = np.where(has_parent, pos[np.where(has_parent, parent, 0)], -1)
        child = np.bincount(parent_row[has_parent], weights=dur[has_parent], minlength=len(sid))
        own = dur - child
        # inclusive time counts a span only when its parent is not a call of the same name
        parent_nid = np.where(parent_row >= 0, nid[np.maximum(parent_row, 0)], -1)
        outer = parent_nid != nid
        n_names = len(names)
        counts = np.bincount(nid, minlength=n_names)
        own_sum = np.bincount(nid, weights=own, minlength=n_names)
        incl_sum = np.bincount(nid[outer], weights=dur[outer], minlength=n_names)
        args = np.bincount(nid, weights=arg.astype(np.float64), minlength=n_names)
        kernel = np.array([n.startswith("cyclotomic.CyclotomicNumber.") for n in names])
        if kernel[nid].any():
            conductor_max = max(conductor_max, int(arg[kernel[nid]].max()))
        for i, name in enumerate(names):
            if counts[i]:
                calls[name] = calls.get(name, 0) + int(counts[i])
                self_by_name[name] = self_by_name.get(name, 0.0) + own_sum[i] / 1e9
                inclusive[name] = inclusive.get(name, 0.0) + incl_sum[i] / 1e9
                arg_sum[name] = arg_sum.get(name, 0) + int(args[i])

    def n(name):
        return calls.get(name, 0)

    def incl(name):
        return inclusive.get(name, 0.0)

    def module_self(mod):
        return sum(t for name, t in self_by_name.items() if name.startswith(mod + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_names = [f"cyclotomic.CyclotomicNumber.{m}" for m in KERNEL_METHODS]
    ops = sum(n(k) for k in kernel_names)
    kernel_self = sum(self_by_name.get(k, 0.0) for k in kernel_names)
    K = "cyclotomic.CyclotomicNumber."
    series_s = incl("lseries.dirichlet_partial") + incl("lseries.identity_series_check")
    coeffs = arg_sum.get("lseries.dirichlet_partial", 0) + arg_sum.get("lseries.identity_series_check", 0)
    return {
        "cyclotomic.self_s": module_self("cyclotomic"),
        "cyclotomic.ops": ops,
        "cyclotomic.add_calls": n(K + "__add__") + n(K + "__radd__"),
        "cyclotomic.mul_calls": n(K + "__mul__") + n(K + "__rmul__"),
        "cyclotomic.zeta_calls": n(K + "zeta"),
        "cyclotomic.inverse_calls": n(K + "inverse"),
        "cyclotomic.ops_per_s": ratio(ops, kernel_self),
        "cyclotomic.conductor_max": conductor_max,
        "cyclotomic.field_of_values_s": incl("cyclotomic.field_of_values"),
        "cyclotomic.zeta_unique_ratio": ratio(distinct.get(K + "zeta", 0), n(K + "zeta")),
        "characters.self_s": module_self("characters"),
        "characters.table_s": incl("characters.irreducible_characters"),
        "characters.inner_product_calls": n("characters.inner_product"),
        "characters.inner_product_s": incl("characters.inner_product"),
        "characters.permutation_character_calls": n("characters.permutation_character"),
        "characters.permutation_character_s": incl("characters.permutation_character"),
        "characters.permutation_character_unique_ratio": ratio(
            distinct.get("characters.permutation_character", 0), n("characters.permutation_character")),
        "characters.character_field_s": incl("characters.character_field"),
        "groups.self_s": module_self("groups"),
        "groups.conjugacy_classes_calls": n("groups.conjugacy_classes"),
        "groups.conjugacy_classes_unique_ratio": ratio(
            distinct.get("groups.conjugacy_classes", 0), n("groups.conjugacy_classes")),
        "groups.iter_valid_groups_s": incl("groups.iter_valid_groups"),
        "schur.self_s": module_self("schur"),
        "schur.global_index_calls": n("schur.global_index"),
        "predictions.prediction_report_s": incl("predictions.prediction_report"),
        "elliptic.a_v_calls": n("elliptic.a_v"),
        "elliptic.a_v_s": incl("elliptic.a_v"),
        "elliptic.points_per_s": ratio(arg_sum.get("elliptic.a_v", 0), incl("elliptic.a_v")),
        "frobenius.frobenius_datum_calls": n("frobenius.frobenius_datum"),
        "frobenius.self_s": module_self("frobenius"),
        "lseries.self_s": module_self("lseries"),
        "lseries.dirichlet_partial_s": incl("lseries.dirichlet_partial"),
        "lseries.identity_series_check_s": incl("lseries.identity_series_check"),
        "lseries.eigenvalue_multiplicities_calls": n("lseries.eigenvalue_multiplicities"),
        "lseries.eigenvalue_multiplicities_s": incl("lseries.eigenvalue_multiplicities"),
        "lseries.multiplicity_calls_per_prime": ratio(
            n("lseries.eigenvalue_multiplicities"), n("elliptic.a_v")),
        "lseries.coeffs_per_s": ratio(coeffs, series_s),
        "cli.import_s": import_ns / 1e9,
        "cli.emit_s": incl("cli._emit"),
        "cli.json_bytes": json_bytes,
    }


if __name__ == "__main__":
    sys.exit(run_job(sys.argv[1:]))
