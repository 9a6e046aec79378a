"""One-stop construction of the computation stack for a datum.

An Engine bundles the validated datum with its Weyl group, Hecke algebra,
Bernstein module and parahoric layer, so suites and the CLI share memo
tables.  There is one Engine per datum configuration in a process, and
nothing persists across processes: every Θ_m is one right-star pass, so a
run computes what it needs from scratch.
"""

from __future__ import annotations

from .affweyl import AffineWeylGroup
from .bernstein import Bernstein
from .hecke import IwahoriHecke
from .parahoric import Parahoric
from .rootdatum import BUNDLED_NAMES, Datum, load_bundled, load_datum_file

__all__ = ["Engine", "engine_for", "load_engine"]

_REGISTRY: dict = {}


class Engine:
    def __init__(self, datum: Datum, weyl: AffineWeylGroup, hecke: IwahoriHecke, bern: Bernstein,
                 para: Parahoric):
        self.datum = datum
        self.weyl = weyl
        self.hecke = hecke
        self.bern = bern
        self.para = para

    def load_cache(self) -> None:
        """Does nothing.  The benchmark's child ends a job's set-up when this
        returns, so `cli.run` still calls it once the engine is built; ROADMAP
        item 1 ends set-up at `engine_for` instead and retires it."""

    def save_cache(self) -> None:
        """Does nothing.  The benchmark's traced probes wrap it by name, so it
        stays until ROADMAP item 1 retires those probes."""


def engine_for(datum: Datum) -> Engine:
    """The one Engine per datum configuration, keyed by its canonical JSON."""
    key = datum.canonical_json
    got = _REGISTRY.get(key)
    if got is not None:
        return got
    weyl = AffineWeylGroup(datum)
    hecke = IwahoriHecke(weyl)
    bern = Bernstein(hecke)
    para = Parahoric(bern)
    eng = Engine(datum=datum, weyl=weyl, hecke=hecke, bern=bern, para=para)
    _REGISTRY[key] = eng
    return eng


def load_engine(source: str) -> Engine:
    """Engine from a bundled name or a datum file path."""
    if source in BUNDLED_NAMES:
        return engine_for(load_bundled(source))
    return engine_for(load_datum_file(source))
