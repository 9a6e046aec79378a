"""One benchmark job: run a parahecke CLI command in this process.

Usage: child.py REPORT TRACE CLI-ARGS...

Imports parahecke from the checkout's ``src/``, wraps public entry points
from outside (nothing under ``src/`` knows about the benchmark), runs
``cli.main(CLI-ARGS)`` and writes a JSON report to REPORT before exiting with
the CLI's exit code.  stdout belongs to the CLI alone, so the parent can
compare it byte for byte.

With TRACE 0 the only probe records when ``Engine.load_cache`` returns, which
ends the job's set-up.  With TRACE 1 every layer entry point below is timed:
a span stack gives each call's self time (its duration minus the time of the
wrapped calls inside it) and, for the outermost call of a group, its
inclusive time.  A wrapped name that no longer exists is reported as absent
rather than failing the job.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Groups with few calls keep a span record (name, start, end, parent); the
# hot leaves (ring kernel, group law, exact division) are only aggregated,
# because a record per call would cost memory in the millions.
KEPT_GROUPS_EXCLUDE = ("ringcore.kernel", "ringcore.exact_div", "affweyl")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list = []  # per open call: [time covered by wrapped calls inside]
        self.depth: dict = {}  # group -> number of open calls of that group
        self.stats: dict = {}  # group -> [calls, self_s, incl_s]
        self.counters: dict = {}
        self.absent: set = set()
        self.spans: list = []  # (id, group, start, end, parent id)
        self._open_kept: list = []
        self._next_id = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, group: str, fn, before=None, after=None):
        stack, depth, clock = self.stack, self.depth, self.clock
        st = self.stats.setdefault(group, [0, 0.0, 0.0])
        keep = group not in KEPT_GROUPS_EXCLUDE
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                try:
                    before(*args, **kwargs)
                except (TypeError, AttributeError, KeyError):
                    tracer.absent.add(group + ".probe")
            d = depth.get(group, 0)
            depth[group] = d + 1
            frame = [0.0]
            stack.append(frame)
            if keep:
                sid = tracer._next_id
                tracer._next_id += 1
                parent = tracer._open_kept[-1] if tracer._open_kept else None
                tracer._open_kept.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                depth[group] = d
                if d == 0:
                    st[2] += dur
                if keep:
                    tracer._open_kept.pop()
                    tracer.spans.append((sid, group, t0, t1, parent))
            if after is not None:
                try:
                    after(out, *args, **kwargs)
                except (TypeError, AttributeError, KeyError):
                    tracer.absent.add(group + ".probe")
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_method(self, cls, name: str, group: str, before=None, after=None) -> None:
        fn = cls.__dict__.get(name) if cls is not None else None
        if not isinstance(fn, types.FunctionType):
            self.absent.add(group)
            return
        setattr(cls, name, self.wrap(group, fn, before, after))

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "absent": sorted(self.absent),
            "spans": self.spans,
        }


def _install_trace(tr: Tracer, state: dict) -> None:
    import parahecke  # noqa: F401  (imports every layer module)

    mods = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name.startswith("parahecke.") and isinstance(mod, types.ModuleType)}
    ringcore, affweyl, hecke, bern, para, engine, rootdatum, verify = (
        mods.get(k) for k in
        ("ringcore", "affweyl", "hecke", "bernstein", "parahoric", "engine", "rootdatum", "verify")
    )

    def cls(mod, name):
        return getattr(mod, name, None) if mod is not None else None

    # Ring kernel: rebind the module-level helpers wherever they were imported.
    for kname in ("_mul", "_add_into"):
        orig = getattr(ringcore, kname, None) if ringcore is not None else None
        if not isinstance(orig, types.FunctionType):
            tr.absent.add("ringcore.kernel")
            continue
        wrapped = tr.wrap("ringcore.kernel", orig)
        for mod in mods.values():
            if mod.__dict__.get(kname) is orig:
                setattr(mod, kname, wrapped)
    tr.wrap_method(cls(ringcore, "LaurentPoly"), "exact_div", "ringcore.exact_div")

    # Group layer.
    W = cls(affweyl, "AffineWeylGroup")

    def rw_probe(weyl, x, *a, **k):
        memo = getattr(weyl, "_red", None)
        if memo is None:
            tr.absent.add("affweyl.reduced_word_memo")
        elif x in memo:
            tr.count("affweyl.reduced_word_hits")
        tr.count("affweyl.reduced_word_calls")

    for name in ("compose", "length", "inverse", "bruhat_le"):
        tr.wrap_method(W, name, "affweyl")
    tr.wrap_method(W, "reduced_word", "affweyl", before=rw_probe)

    # Rewriting engine and basis inversion.
    H = cls(hecke, "IwahoriHecke")
    inverted: set = set()
    state["inverted"] = inverted
    tr.wrap_method(H, "mul", "hecke.mul")
    tr.wrap_method(H, "im_invert_basis", "hecke.invert", before=lambda h, w, *a, **k: inverted.add(w))

    # Θ construction.
    def theta_probe(b, m, *a, **k):
        memo = getattr(b, "_theta", None)
        if memo is None:
            tr.absent.add("bernstein.theta_memo")
        elif m not in memo:
            tr.count("bernstein.theta_builds")

    tr.wrap_method(cls(bern, "Bernstein"), "theta", "bernstein.theta", before=theta_probe)

    # Center and Satake elimination.
    P = cls(para, "Parahoric")

    def center_probe(p, F, m, *a, **k):
        memo = getattr(p, "_centers", None)
        if memo is None:
            tr.absent.add("parahoric.center_memo")
        elif (getattr(F, "J", None), m) not in memo:
            tr.count("parahoric.center_elt_builds")

    def rows_probe(table, *a, **k):
        rows = getattr(table, "rows", None)
        if rows is None:
            tr.absent.add("parahoric.satake_rows")
        else:
            tr.count("parahoric.satake_rows", len(rows))

    tr.wrap_method(P, "satake_table", "parahoric.satake_table", after=rows_probe)
    tr.wrap_method(P, "center_elt", "parahoric.center_elt", before=center_probe)
    tr.wrap_method(P, "facet", "parahoric.facet")

    # Persistent cache.
    E = cls(engine, "Engine")
    tr.wrap_method(E, "save_cache", "engine.save_cache")

    # Root datum: construction and enumeration.
    D = cls(rootdatum, "Datum")
    tr.wrap_method(D, "__init__", "rootdatum.build")
    for name in ("antidominant_set", "saturation_predecessors_ranked", "orbit"):
        tr.wrap_method(D, name, "rootdatum.enum")

    # Verification suites, looked up by name at call time.
    suites = getattr(verify, "_SUITES", None) if verify is not None else None
    if isinstance(suites, dict):
        for key, fn in list(suites.items()):
            suites[key] = tr.wrap(f"verify.{key}", fn)
    else:
        tr.absent.add("verify.suites")


def _memo_sizes(eng) -> dict:
    """Sizes of the engine's memo tables that persist or dominate memory."""
    out = {}
    for name, path in (
        ("hecke.gen_cache_entries", ("hecke", "_gen_cache")),
        ("bernstein.theta_entries", ("bern", "_theta")),
        ("parahoric.theta_oneK_entries", ("para", "_theta_oneK")),
    ):
        obj = eng
        for attr in path:
            obj = getattr(obj, attr, None)
        if isinstance(obj, dict):
            out[name] = len(obj)
    return out


def main(argv) -> int:
    report_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from parahecke import cli
    from parahecke.engine import Engine

    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"parahecke imported from {cli.__file__}, not from this checkout")

    state: dict = {"setup_done": None, "engine": None}
    tr = Tracer() if trace else None
    load = Engine.load_cache

    def load_cache(eng, *a, **k):
        out = load(eng, *a, **k)
        if state["setup_done"] is None:
            state["setup_done"] = time.monotonic()
            state["engine"] = eng
            state["loaded"] = _memo_sizes(eng)
        return out

    if tr is not None:
        _install_trace(tr, state)
        Engine.load_cache = tr.wrap("engine.load_cache", load_cache)
        code = tr.wrap("cli.main", cli.main)(cli_args)
    else:
        Engine.load_cache = load_cache
        code = cli.main(cli_args)
    sys.stdout.flush()

    rep: dict = {"setup_done": state["setup_done"]}
    if tr is not None:
        rep.update(tr.report())
        if state["engine"] is not None:
            rep["loaded"] = state["loaded"]
            rep["final"] = _memo_sizes(state["engine"])
        rep["invert_distinct"] = len(state.get("inverted", ()))
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
