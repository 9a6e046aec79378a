"""Exact Iwahori-Hecke algebras of extended affine Weyl groups.

Core objects: validated root data with torsion (`rootdatum`), the extended
affine Weyl group (`affweyl`), the Iwahori-Matsumoto rewriting engine
(`hecke`), Bernstein elements and the twisted dot-action (`bernstein`),
parahoric centers and twisted Satake tables (`parahoric`).
"""

__version__ = "0.1.0"  # set before the imports: engine keys its Θ cache on it

from .affweyl import AffineWeylGroup, ExtWeylElt
from .bernstein import Bernstein, BernsteinElt, GroupAlgElt
from .engine import Engine, engine_for, load_engine
from .hecke import HeckeElt, IwahoriHecke, TorsionQuotient
from .parahoric import FacetType, Parahoric, SatakeTable
from .ringcore import LaurentPoly, is_prime_power
from .rootdatum import (
    BUNDLED_NAMES,
    Datum,
    LatticeElt,
    RootDatum,
    load_bundled,
    load_datum_file,
)

__all__ = [
    "AffineWeylGroup", "ExtWeylElt",
    "Bernstein", "BernsteinElt", "GroupAlgElt",
    "Engine", "engine_for", "load_engine",
    "HeckeElt", "IwahoriHecke", "TorsionQuotient",
    "FacetType", "Parahoric", "SatakeTable",
    "LaurentPoly", "is_prime_power",
    "BUNDLED_NAMES", "Datum", "LatticeElt", "RootDatum",
    "load_bundled", "load_datum_file",
]
