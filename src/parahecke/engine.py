"""One-stop construction and caching of the computation stack for a datum.

An Engine bundles the validated datum with its Weyl group, Hecke algebra,
Bernstein module and parahoric layer, so suites and the CLI share memo
tables.  When PARAHECKE_CACHE_DIR is set, the Θ-element table persists
across processes (its entries are held packed in memory: saving unpacks a
copy of each, and loaded ones stay unpacked until used, so loading does no
arithmetic).  Products Θ·1_K are not persisted: each is one coset-sum pass
from Θ, cheaper than parsing it back.  Even so a warm run is no faster than a
cold one: the Satake product check builds no Θ_μ (it takes coset sums through
Bernstein.theta_coset_sums), so the cache holds only the Θ_m of the center
elements, 112 entries (117 KB) over the benchmark's `satake` jobs, and
loading them saves about as much as it costs.  A cache file is one JSON
header line (format version, package version, datum content hash and the
sha256 of the rest) followed by the JSON payload; a file whose header does
not match this engine or its payload is never read, so stale, edited and
truncated caches are misses.  A run that loaded the file and added no Θ
entry does not rewrite it.  Cache I/O never fails a run: an
unusable directory or a file of the wrong shape just means no cache.

Only the cache path imports hashlib (and with it OpenSSL, about 3.8 MB of
resident memory) and tempfile: engine_for keys its registry by the datum's
canonical JSON, not by its digest, so a run without PARAHECKE_CACHE_DIR
loads neither.
"""

from __future__ import annotations

import json
import os

from . import __version__
from .affweyl import AffineWeylGroup, ExtWeylElt
from .bernstein import Bernstein
from .hecke import HeckeElt, IwahoriHecke
from .parahoric import Parahoric
from .ringcore import LaurentPoly
from .rootdatum import BUNDLED_NAMES, Datum, LatticeElt, load_bundled, load_datum_file

__all__ = ["Engine", "engine_for", "load_engine", "CACHE_ENV", "CACHE_VERSION"]

CACHE_ENV = "PARAHECKE_CACHE_DIR"
CACHE_VERSION = 3

_REGISTRY: dict = {}


class Engine:
    def __init__(self, datum: Datum, weyl: AffineWeylGroup, hecke: IwahoriHecke, bern: Bernstein,
                 para: Parahoric):
        self.datum = datum
        self.weyl = weyl
        self.hecke = hecke
        self.bern = bern
        self.para = para
        # (path, Θ entries) when that file holds exactly the Θ memo table
        self._saved: tuple | None = None

    # -- persisted memo tables -------------------------------------------

    def _cache_path(self, cache_dir: str) -> str:
        return os.path.join(cache_dir, f"parahecke-v{CACHE_VERSION}-{self.datum.content_hash()}.json")

    def _cache_header(self, digest: str) -> dict:
        return {"version": CACHE_VERSION, "package": __version__,
                "datum": self.datum.content_hash(), "sha256": digest}

    def load_cache(self, cache_dir: str | None = None) -> bool:
        cache_dir = cache_dir or os.environ.get(CACHE_ENV)
        if not cache_dir:
            return False
        path = self._cache_path(cache_dir)
        if not os.path.exists(path):
            return False
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                body = fh.read()
        except (OSError, ValueError):
            return False
        # the header names the format, package and datum and the payload's
        # digest; any mismatch is a miss, so an edited or truncated payload is
        # never served
        if header != self._cache_header(_digest(body)):
            return False
        try:  # a payload of the wrong shape is a miss; nothing is installed from it
            blob = json.loads(body)
            theta = {_lattice_from(key): self._hecke_from(terms) for key, terms in blob["theta"]}
        except (AttributeError, LookupError, TypeError, ValueError):
            return False
        for m, h in theta.items():
            self.bern._theta.setdefault(m, h)
        if len(self.bern._theta) == len(theta):
            self._saved = (path, len(theta))
        return True

    def save_cache(self, cache_dir: str | None = None) -> bool:
        cache_dir = cache_dir or os.environ.get(CACHE_ENV)
        if not cache_dir:
            return False
        path = self._cache_path(cache_dir)
        if self._saved == (path, len(self.bern._theta)):
            return True  # the memo table only grows, so the file already holds it
        body = json.dumps({
            "theta": [
                [_lattice_to(m), self._hecke_to(h)] for m, h in sorted(self.bern._theta.items())
            ],
        }).encode()
        header = json.dumps(self._cache_header(_digest(body))).encode()
        import tempfile  # imported on use, like hashlib: only the cache path needs it

        tmp = None
        try:  # an unusable cache directory only loses the cache
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(header + b"\n" + body)
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False
        self._saved = (path, len(self.bern._theta))
        return True

    def _hecke_to(self, h: HeckeElt) -> list:
        if h._pk is not None:  # unpack a copy, so that the memo entry stays packed
            h = self.hecke._from_packed(*h._pk)
        return [
            [list(w.free), list(w.tors), w.w, p.to_pairs()] for w, p in sorted(h.d.items())
        ]

    def _hecke_from(self, terms) -> HeckeElt:
        d = {}
        for free, tors, wi, pairs in terms:
            d[ExtWeylElt(tuple(free), tuple(tors), int(wi))] = LaurentPoly.from_pairs(pairs)
        return HeckeElt(self.hecke, d)


def _digest(body: bytes) -> str:
    import hashlib  # imported on use, as in Datum.content_hash

    return hashlib.sha256(body).hexdigest()


def _lattice_to(m: LatticeElt) -> list:
    return [list(m.free), list(m.tors)]


def _lattice_from(key) -> LatticeElt:
    return LatticeElt(tuple(key[0]), tuple(key[1]))


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
