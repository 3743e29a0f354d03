"""scipy's erf and erfc ufuncs and its version, loaded without importing scipy.

The moment integrals L_n and their recurrence, which only checks use, are in
`oracles`.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

# scipy's package directory, found without importing scipy
_spec = importlib.util.find_spec("scipy")
SCIPY_DIR = None if _spec is None or _spec.origin is None else Path(_spec.origin).parent


def _load_erf() -> tuple:
    """(erf, erfc, ERF): scipy.special's ufuncs from its extension _special_ufuncs alone.

    That costs about 1 MiB, importing scipy.special about 24 MiB. ERF is "extension",
    or "scipy.special" where that file is missing (older scipy keeps erf in _ufuncs).
    """
    name, root = "scipy.special._special_ufuncs", SCIPY_DIR
    paths = [root / "special" / f"_special_ufuncs{x}" for x in EXTENSION_SUFFIXES] if root else []
    try:
        module = sys.modules.get(name)
        if module is None:
            loader = ExtensionFileLoader(name, str(next(p for p in paths if p.is_file())))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            # creating a single-phase extension module registers it, but a later import of
            # scipy.special would then not bind it as its attribute; unregistered, that
            # import takes it from the interpreter's cache of this module, same ufuncs
            sys.modules.pop(name, None)
        return module.erf, module.erfc, "extension"
    except (StopIteration, ImportError, AttributeError):
        from scipy.special import erf, erfc
        return erf, erfc, "scipy.special"


erf, erfc, ERF = _load_erf()


def scipy_version() -> str:
    """scipy.__version__, from running scipy/version.py alone, where scipy takes it from.

    Importing the bare scipy package for it would cost about 1.4 MiB.
    """
    path = None if SCIPY_DIR is None else SCIPY_DIR / "version.py"
    if path is None or not path.is_file():
        return __import__("scipy").__version__
    spec = importlib.util.spec_from_file_location("_scipy_version", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version
